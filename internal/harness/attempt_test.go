package harness

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mayacache/internal/snapshot"
)

// TestAttemptOutcomes drives the shared attempt through every outcome its
// three callers (RunCells, the fleet worker, the session server) map onto
// their own records.
func TestAttemptOutcomes(t *testing.T) {
	hard := errors.New("hard failure")
	cases := []struct {
		name     string
		deadline time.Duration
		cancel   bool // cancel the parent context before running
		run      func(ctx context.Context) (int, error)
		want     Outcome
		check    func(t *testing.T, err error)
	}{
		{name: "value", run: func(context.Context) (int, error) { return 42, nil }, want: Succeeded},
		{name: "error", run: func(context.Context) (int, error) { return 0, hard }, want: Failed,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, hard) {
					t.Fatalf("err = %v, want the cell's error", err)
				}
			}},
		{name: "transient", run: func(context.Context) (int, error) { return 0, Transient(hard) }, want: FailedTransient},
		{name: "panic", run: func(context.Context) (int, error) { panic("cell exploded") }, want: Failed,
			check: func(t *testing.T, err error) {
				if !strings.Contains(err.Error(), "cell exploded") || PanicStack(err) == nil {
					t.Fatalf("err = %v (stack %d bytes), want the panic with its stack", err, len(PanicStack(err)))
				}
			}},
		{name: "deadline", deadline: 10 * time.Millisecond, want: Failed,
			run: func(ctx context.Context) (int, error) {
				<-ctx.Done() // cooperative simulator: observes the deadline
				return 0, ctx.Err()
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want DeadlineExceeded", err)
				}
			}},
		{name: "parent cancel", cancel: true, deadline: time.Hour, want: Cancelled,
			run: func(ctx context.Context) (int, error) { return 0, ctx.Err() }},
		{name: "stopped", run: func(context.Context) (int, error) { return 0, snapshot.ErrStopped }, want: Stopped},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancel {
				cancel()
			}
			res := RunAttempt(ctx, Attempt{Key: "exp|cell", Deadline: c.deadline}, c.run)
			if res.Outcome != c.want {
				t.Fatalf("outcome %d (err %v), want %d", res.Outcome, res.Err, c.want)
			}
			if (res.Err == nil) != (c.want == Succeeded) {
				t.Fatalf("err = %v for outcome %d", res.Err, res.Outcome)
			}
			if c.want == Succeeded && res.Value != 42 {
				t.Fatalf("value %d, want 42", res.Value)
			}
			if c.check != nil {
				c.check(t, res.Err)
			}
		})
	}
}
