package harness

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
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

// saveState is a SaveSystem callback whose System state is the one byte b.
func saveState(b byte) func(*snapshot.Encoder) error {
	return func(e *snapshot.Encoder) error {
		e.U8(b)
		return nil
	}
}

// TestAttemptJoinsHeldSave holds the cell's OnSave for its only save and
// checks that the attempt does not return until the hook does, even
// though the cell's run returned right after saving.
func TestAttemptJoinsHeldSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.snap")
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan Result[int], 1)
	go func() {
		done <- RunAttempt(context.Background(), Attempt{
			Key: "exp|held", Path: path,
			OnSave: func(int) {
				close(entered)
				<-release
			},
		}, func(ctx context.Context) (int, error) {
			return 42, snapshot.CellFrom(ctx).SaveSystem(saveState(1))
		})
	}()
	<-entered
	select {
	case res := <-done:
		t.Fatalf("attempt returned (outcome %d) while its OnSave was held", res.Outcome)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	res := <-done
	if res.Outcome != Succeeded || res.Value != 42 {
		t.Fatalf("outcome %d, value %d, err %v; want Succeeded with 42", res.Outcome, res.Value, res.Err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cell file after the attempt: %v", err)
	}
}

// TestAttemptFailedWriteFails removes the cell's directory from OnSave(1),
// so the second save's write fails. The attempt must fail with that
// write's error, whether the cell returned its value or stopped on the
// trigger after that save.
func TestAttemptFailedWriteFails(t *testing.T) {
	for _, stop := range []bool{false, true} {
		t.Run(map[bool]string{false: "value", true: "stop"}[stop], func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cells")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			var trig snapshot.Trigger
			res := RunAttempt(context.Background(), Attempt{
				Key: "exp|lost", Path: filepath.Join(dir, "cell.snap"), Trigger: &trig,
				OnSave: func(saves int) {
					if saves == 1 {
						if err := os.RemoveAll(dir); err != nil {
							t.Error(err)
						}
						if stop {
							trig.Fire()
						}
					}
				},
			}, func(ctx context.Context) (int, error) {
				cell := snapshot.CellFrom(ctx)
				for b := byte(1); b <= 2; b++ {
					if err := cell.SaveSystem(saveState(b)); err != nil {
						return 0, err
					}
				}
				if trig.Fired() {
					return 0, snapshot.ErrStopped
				}
				return 42, nil
			})
			if res.Outcome != Failed {
				t.Fatalf("outcome %d (err %v), want Failed", res.Outcome, res.Err)
			}
			if errors.Is(res.Err, snapshot.ErrStopped) || !errors.Is(res.Err, fs.ErrNotExist) {
				t.Fatalf("err = %v, want the failed write's error", res.Err)
			}
			if res.Value != 0 {
				t.Fatalf("value %d from a failed attempt", res.Value)
			}
		})
	}
}
