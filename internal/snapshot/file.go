package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path so that a reader, or a process
// restarted after a crash, observes either the previous contents or the
// complete new contents, never a partial write: the data lands in a temp
// file in the same directory, is fsynced, and is renamed over path. The
// containing directory is synced best-effort afterwards so the rename
// itself survives a crash.
//
// It is the one durable-write path: cell state files, migrated state
// blobs, and the CLIs' rendezvous files (listener address, pid) that
// other processes poll for.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("snapshot: atomic write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("snapshot: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("snapshot: atomic write %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // best effort: not all filesystems support dir fsync
		_ = d.Close()
	}
	return nil
}
