package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
)

// A journal is an append-only JSON-lines file with one fsynced line per
// acknowledged change. humod keeps two kinds, with the same crash contract:
//
//	<id>.journal.jsonl     a session's answered batches since its base
//	                       checkpoint (<id>.checkpoint.json); truncated when
//	                       a compaction folds them into the base
//	<name>.appends.jsonl   a live workload's record appends, one Sync epoch
//	                       per line; never compacted — the lines ARE the
//	                       epoch history recovery replays
//
// An acknowledged change is one small line written and fsynced, O(change)
// instead of a rewrite of the whole state. Every line carries the format
// version and a sequence number counting from 1.
//
// Crash safety: a torn final line (power cut mid-append) is discarded — the
// change it carried was never acknowledged — and recovery truncates the
// file back to its last complete line, so the reopened O_APPEND handle
// never writes onto the fragment. A crash between a compaction's base
// rewrite and the delta truncation leaves deltas that are already folded
// into the base; replaying them in order is idempotent (the last value of
// every pair id equals the base's), so recovery stays exact. Corruption
// anywhere before the final line — including a broken seq chain — fails
// recovery loudly.

// journalVersion versions both journal line formats.
const journalVersion = 1

// deltaLine is one journaled answered batch. Labels keys are pair ids in
// decimal (JSON object keys are strings).
type deltaLine struct {
	V      int             `json:"v"`
	Seq    int             `json:"seq"`
	Labels map[string]bool `json:"labels"`
}

// journalLine is the line format of one kind of journal.
type journalLine interface {
	deltaLine | appendLine
	header() (v, seq int)
}

func (l deltaLine) header() (int, int) { return l.V, l.Seq }

// errJournalCorrupt reports a journal that cannot be replayed.
var errJournalCorrupt = errors.New("serve: corrupt journal")

// journal owns one append-only journal file. The caller serializes appends
// (the managed session's or the live workload's mutex does).
type journal struct {
	path string
	f    *os.File // nil until the first append
	seq  int      // lines currently in the file
	buf  bytes.Buffer
}

// newJournal returns a journal over path without touching the disk; the
// file is created lazily on the first append.
func newJournal(path string) *journal {
	return &journal{path: path}
}

// appendDelta journals one answered batch. An empty batch writes nothing.
func (j *journal) appendDelta(labels map[int]bool) error {
	if len(labels) == 0 {
		return nil
	}
	wire := make(map[string]bool, len(labels))
	for id, v := range labels {
		wire[strconv.Itoa(id)] = v
	}
	return j.write(deltaLine{V: journalVersion, Seq: j.seq + 1, Labels: wire})
}

// appendRows journals one record append, the raw rows exactly as accepted.
func (j *journal) appendRows(rowsA, rowsB [][]string) error {
	return j.write(appendLine{V: journalVersion, Seq: j.seq + 1, RowsA: rowsA, RowsB: rowsB})
}

// write appends one line: a single buffered write of its JSON encoding
// followed by one fsync.
func (j *journal) write(line any) error {
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		j.f = f
	}
	j.buf.Reset()
	if err := json.NewEncoder(&j.buf).Encode(line); err != nil {
		return err
	}
	if _, err := j.f.Write(j.buf.Bytes()); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.seq++
	return nil
}

// len returns the number of lines in the file.
func (j *journal) len() int { return j.seq }

// truncate empties the file after a compaction folded its lines into the
// base snapshot. Truncating through the open handle keeps O_APPEND writers
// valid; a crash before the truncate merely leaves idempotent deltas
// behind.
func (j *journal) truncate() error {
	if j.f == nil {
		// Nothing was ever appended through this handle; clear any stale
		// file left by a previous process.
		if err := os.Truncate(j.path, 0); err != nil && !os.IsNotExist(err) {
			return err
		}
	} else {
		if err := j.f.Truncate(0); err != nil {
			return err
		}
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	j.seq = 0
	return nil
}

// close releases the append handle (the file stays for recovery).
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// remove deletes the file (session deleted for good).
func (j *journal) remove() error {
	j.close() //nolint:errcheck // the file is about to be unlinked
	if err := os.Remove(j.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	j.seq = 0
	return nil
}

// readJournal decodes the complete lines of a journal in order and returns
// the byte offset just past the last one. A final line without its newline
// is a torn tail (crash mid-append, never acknowledged): it is dropped and
// its bytes stay past complete. Malformed content anywhere else — bad JSON,
// an unknown field, a wrong version, a sequence-number gap, duplicate or
// reorder — is errJournalCorrupt.
func readJournal[L journalLine](r io.Reader) (lines []L, complete int64, err error) {
	br := bufio.NewReader(r)
	for {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF {
			return lines, complete, nil
		}
		if err != nil {
			return nil, 0, err
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			complete += int64(len(raw))
			continue
		}
		n := len(lines) + 1
		var l L
		if err := unmarshalJSONStrict(raw, &l); err != nil {
			return nil, 0, fmt.Errorf("%w: line %d: %v", errJournalCorrupt, n, err)
		}
		if v, seq := l.header(); v != journalVersion {
			return nil, 0, fmt.Errorf("%w: line %d: version %d, want %d", errJournalCorrupt, n, v, journalVersion)
		} else if seq != n {
			return nil, 0, fmt.Errorf("%w: line %d: seq %d, want %d", errJournalCorrupt, n, seq, n)
		}
		complete += int64(len(raw))
		lines = append(lines, l)
	}
}

// replay reads a journal's file back for recovery and leaves the journal
// ready to append after its last complete line. A missing file is an empty
// journal. The bytes of a torn final line are truncated away: the journal
// reopens with O_APPEND, so a surviving fragment would have the first
// post-recovery append concatenate onto it and turn a benign mid-append
// crash into errJournalCorrupt on the next restart.
func replay[L journalLine](j *journal) ([]L, error) {
	f, err := os.Open(j.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lines, complete, err := readJournal[L](f)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > complete {
		if err := os.Truncate(j.path, complete); err != nil {
			return nil, fmt.Errorf("truncating torn journal tail: %w", err)
		}
	}
	j.seq = len(lines)
	return lines, nil
}

// deltaLabels decodes the pair ids of journaled answered batches into the
// per-batch label maps humo.RestoreSessionDeltas replays.
func deltaLabels(lines []deltaLine) ([]map[int]bool, error) {
	deltas := make([]map[int]bool, len(lines))
	for i, dl := range lines {
		deltas[i] = make(map[int]bool, len(dl.Labels))
		for k, v := range dl.Labels {
			id, err := strconv.Atoi(k)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: pair id %q", errJournalCorrupt, i+1, k)
			}
			deltas[i][id] = v
		}
	}
	return deltas, nil
}
