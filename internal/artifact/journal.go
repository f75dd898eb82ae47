// Package artifact is the durability layer of the trial pipeline: a
// content-addressed, checksummed store for completed trial results (and any
// other append-only state, like the fleet store's write-ahead log). The
// paper's premise is salvaging diagnosis evidence from runs that die
// unexpectedly — §3.2 reads the LBR inside the segfault handler precisely
// because the crash must not destroy what the hardware already captured.
// This package applies the same philosophy one level up: every committed
// trial's profile and telemetry is persisted as it completes, so a killed
// experiment sweep resumes from its committed artifacts instead of losing
// them, and a corrupt or torn artifact is detected by checksum, quarantined
// and re-executed rather than poisoning the diagnosis.
//
// Two layers:
//
//   - Journal: a length+CRC framed append-only record log. Opening a
//     journal salvages a torn tail (a write cut short by SIGKILL or an
//     injected fault): the bytes after the last intact frame are moved to a
//     quarantine file and the log is truncated back to its good prefix.
//
//   - Store: a manifest journal plus content-addressed blob files
//     (blobs/<sha256>), keyed by the caller's trial-identity hash. Load
//     re-hashes the blob and quarantines any mismatch.
//
// Both layers are deterministic and fsync-free: crash-consistency comes
// from frame checksums and atomic renames, not from write barriers, so the
// commit path stays fast and a lost tail costs only re-execution.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Frame layout: magic (4) | payload length (4) | CRC-32 of payload (4) |
// payload. The magic guards against scanning garbage as a length field.
const (
	frameMagic  = 0x53544d4a // "STMJ"
	frameHeader = 12
	// maxFrame bounds one record; anything larger is treated as a torn or
	// corrupt header during the open scan.
	maxFrame = 1 << 28
)

// SalvageReport describes what opening a journal had to repair.
type SalvageReport struct {
	// Records is how many intact records the journal held.
	Records int
	// DroppedBytes is the size of the torn/corrupt tail that was removed
	// (0 for a clean journal).
	DroppedBytes int64
	// QuarantinePath is where the dropped tail bytes were saved ("" when
	// nothing was dropped).
	QuarantinePath string
}

// Salvaged reports whether the open had to drop a tail.
func (r SalvageReport) Salvaged() bool { return r.DroppedBytes > 0 }

// Journal is an append-only record log with per-record checksums. Appends
// are safe for concurrent use; the frame is assembled into one buffer and
// written with a single Write call so a crash can only tear the final
// frame, which the next open salvages.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal opens (creating if needed) the journal at path, returning the
// intact records and a salvage report. A torn or corrupt tail is moved to
// "<path>.quarantine" and the journal truncated back to its intact prefix,
// so a crashed writer never poisons the next reader.
func OpenJournal(path string) (*Journal, [][]byte, SalvageReport, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, SalvageReport{}, fmt.Errorf("artifact: open journal: %w", err)
	}
	// One read into a buffer sized by the file's Stat: a large manifest
	// costs one allocation, not a doubling series.
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, SalvageReport{}, fmt.Errorf("artifact: read journal: %w", err)
	}
	recs, good := scanFrames(data)
	rep := SalvageReport{Records: len(recs), DroppedBytes: int64(len(data) - good)}
	if rep.DroppedBytes > 0 {
		qpath := path + ".quarantine"
		if werr := os.WriteFile(qpath, data[good:], 0o644); werr == nil {
			rep.QuarantinePath = qpath
		}
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, rep, fmt.Errorf("artifact: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, rep, fmt.Errorf("artifact: seek journal: %w", err)
	}
	return &Journal{f: f, path: path}, recs, rep, nil
}

// scanFrames parses intact frames from data, returning the records and the
// byte offset of the first non-intact frame (== len(data) for a clean log).
func scanFrames(data []byte) (recs [][]byte, good int) {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return recs, off
		}
		magic := binary.LittleEndian.Uint32(data[off:])
		n := binary.LittleEndian.Uint32(data[off+4:])
		sum := binary.LittleEndian.Uint32(data[off+8:])
		if magic != frameMagic || n > maxFrame {
			return recs, off
		}
		end := off + frameHeader + int(n)
		if end > len(data) {
			return recs, off
		}
		payload := data[off+frameHeader : end]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off
		}
		recs = append(recs, payload)
		off = end
	}
}

// frame assembles one record's on-disk bytes.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, frameMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	return buf
}

// Append writes one record.
func (j *Journal) Append(payload []byte) error {
	return j.appendPrefix(payload, -1)
}

// appendPrefix writes a record, optionally truncated to keep bytes of its
// frame (keep >= 0) — the injected torn-write path. keep < 0 writes the
// whole frame.
func (j *Journal) appendPrefix(payload []byte, keep int) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("artifact: journal record of %d bytes exceeds frame limit", len(payload))
	}
	buf := frame(payload)
	if keep >= 0 && keep < len(buf) {
		buf = buf[:keep]
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("artifact: journal is closed")
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("artifact: append journal record: %w", err)
	}
	return nil
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file; further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// TruncateJournal cuts a journal back to its first n intact records — the
// deterministic stand-in for a SIGKILL at a record boundary, used by the
// kill-resume equivalence tests. n past the end leaves the file unchanged.
func TruncateJournal(path string, n int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	off, kept := 0, 0
	for kept < n {
		if len(data)-off < frameHeader {
			break
		}
		fn := binary.LittleEndian.Uint32(data[off+4:])
		end := off + frameHeader + int(fn)
		if binary.LittleEndian.Uint32(data[off:]) != frameMagic || end > len(data) {
			break
		}
		off, kept = end, kept+1
	}
	return os.Truncate(path, int64(off))
}
