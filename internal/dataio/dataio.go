// Package dataio reads and writes the CSV artifacts a HUMO deployment on
// real data exchanges with its surroundings: record tables, human label
// files, pending-review queues and final resolution results. It exists so
// cmd/humo can drive the whole pipeline file-to-file; the formats are plain
// CSV with a header row.
package dataio

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"humo/internal/blocking"
	"humo/internal/core"
	"humo/internal/records"
)

// ErrBadFormat reports malformed input data.
var ErrBadFormat = errors.New("dataio: bad format")

// Metadata embedded in CSV artifacts rides in leading comment lines of the
// form `# key: value`. Folding metadata into the data file itself — instead
// of a sidecar written in a second syscall — makes artifact-plus-metadata a
// single atomic rename: there is no kill window in which the data exists
// without its fingerprint (or, worse, next to a stale one). Readers that
// predate a given key skip comment lines wholesale, and the legacy sidecar
// files remain readable, so both directions stay compatible.

// readMeta consumes the leading `# key: value` comment lines of br and
// returns them as a map (empty when the stream starts with data). Malformed
// comment lines are skipped, not errors: comments are a metadata channel,
// never load-bearing for parsing the data that follows.
func readMeta(br *bufio.Reader) (map[string]string, error) {
	meta := map[string]string{}
	for {
		b, err := br.Peek(1)
		if err == io.EOF || (err == nil && b[0] != '#') {
			return meta, nil
		}
		if err != nil {
			return nil, err
		}
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		body := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "#"))
		if k, v, ok := strings.Cut(body, ":"); ok {
			meta[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
		if err == io.EOF {
			return meta, nil
		}
	}
}

// writeMeta writes one `# key: value` metadata comment line.
func writeMeta(w io.Writer, key, value string) error {
	_, err := fmt.Fprintf(w, "# %s: %s\n", key, value)
	return err
}

// ReadTable parses a CSV with a header row into a record table: every
// column is an attribute, every subsequent row a record (ids are row
// positions). EntityID is set to the record's own id — ground truth is
// unknown for real data and never read by the algorithms.
func ReadTable(r io.Reader, name string) (*records.Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadFormat, err)
	}
	if len(header) == 0 {
		return nil, fmt.Errorf("%w: empty header", ErrBadFormat)
	}
	t := &records.Table{Name: name, Attributes: append([]string(nil), header...)}
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrBadFormat, i+2, err)
		}
		if len(row) != len(header) {
			return nil, fmt.Errorf("%w: row %d has %d fields, want %d", ErrBadFormat, i+2, len(row), len(header))
		}
		t.Records = append(t.Records, records.Record{
			ID:       i,
			EntityID: i,
			Values:   append([]string(nil), row...),
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteTable writes a record table as CSV (header row + one row per
// record), the inverse of ReadTable.
func WriteTable(w io.Writer, t *records.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Attributes); err != nil {
		return err
	}
	for _, r := range t.Records {
		if err := cw.Write(r.Values); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Labels maps candidate-pair ids to human match/unmatch answers.
type Labels map[int]bool

// ReadLabels parses a label CSV of the form `pair_id,label` (header row
// required; label is true/false, 1/0, match/unmatch, yes/no —
// case-insensitive via ParseBool plus the match/unmatch forms).
func ReadLabels(r io.Reader) (Labels, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.Comment = '#' // workload metadata lines (WriteLabelsGuarded)
	header, err := cr.Read()
	if err == io.EOF {
		return Labels{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadFormat, err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("%w: label header needs pair_id,label", ErrBadFormat)
	}
	out := Labels{}
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrBadFormat, i+2, err)
		}
		if len(row) < 2 {
			return nil, fmt.Errorf("%w: row %d has %d fields, want >= 2", ErrBadFormat, i+2, len(row))
		}
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: pair id %q", ErrBadFormat, i+2, row[0])
		}
		label, err := ParseLabel(row[1])
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrBadFormat, i+2, err)
		}
		out[id] = label
	}
	return out, nil
}

// ParseLabel parses one human answer: match/unmatch, m/u, yes/no, y/n or
// anything strconv.ParseBool accepts. The same forms work in label CSVs and
// at the interactive prompt.
func ParseLabel(s string) (bool, error) {
	switch s {
	case "match", "Match", "MATCH", "yes", "y", "m":
		return true, nil
	case "unmatch", "Unmatch", "UNMATCH", "no", "n", "u":
		return false, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("label %q not recognized", s)
	}
	return v, nil
}

// WriteLabelsGuarded writes a label CSV with the workload fingerprint the
// labels were collected for folded into a leading `# workload: ...`
// comment: one atomic write pins the labels to their candidate set, where
// the `.workload` sidecar had a kill window between the label write and the
// guard write. ReadLabelsWorkload reads the guard back; plain ReadLabels
// skips it.
func WriteLabelsGuarded(w io.Writer, labels Labels, workload string) error {
	if workload != "" {
		if err := writeMeta(w, "workload", workload); err != nil {
			return err
		}
	}
	return WriteLabels(w, labels)
}

// ReadLabelsWorkload reads a label CSV plus the workload fingerprint
// embedded by WriteLabelsGuarded — empty when absent (legacy files guarded
// by a sidecar, or hand-built ones).
func ReadLabelsWorkload(r io.Reader) (Labels, string, error) {
	br := bufio.NewReader(r)
	meta, err := readMeta(br)
	if err != nil {
		return nil, "", err
	}
	labels, err := ReadLabels(br)
	return labels, meta["workload"], err
}

// WriteLabels writes a label CSV, sorted by pair id.
func WriteLabels(w io.Writer, labels Labels) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pair_id", "label"}); err != nil {
		return err
	}
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		label := "unmatch"
		if labels[id] {
			label = "match"
		}
		if err := cw.Write([]string{strconv.Itoa(id), label}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ScoredLabel is one machine-classifier output: the predicted match/unmatch
// label plus the classifier's real-valued confidence score (any scale,
// monotone in match propensity — SVM decision values, Fellegi-Sunter weights,
// posterior probabilities).
type ScoredLabel struct {
	Match bool
	Score float64
}

// ScoredLabels maps candidate-pair ids to classifier labels. It is the
// ingestion format for externally supplied matcher output
// (`humo -classifier file`, humod's "correct" session spec).
type ScoredLabels map[int]ScoredLabel

// WriteScoredLabels writes a classifier label CSV of the form
// `pair_id,label,score` (sorted by pair id) with the fingerprint of the
// workload the labels were computed for folded into a leading
// `# fingerprint: ...` comment — the same embedded-guard convention as
// WritePairsFingerprinted, so one atomic write pins the labels to their
// candidate set. Pass an empty fingerprint to omit the guard.
func WriteScoredLabels(w io.Writer, labels ScoredLabels, fingerprint string) error {
	if fingerprint != "" {
		if err := writeMeta(w, "fingerprint", fingerprint); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pair_id", "label", "score"}); err != nil {
		return err
	}
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := labels[id]
		label := "unmatch"
		if l.Match {
			label = "match"
		}
		if err := cw.Write([]string{
			strconv.Itoa(id),
			label,
			strconv.FormatFloat(l.Score, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadScoredLabels parses a classifier label CSV (`pair_id,label,score`,
// header row required; labels in every ParseLabel form) plus the workload
// fingerprint embedded by WriteScoredLabels — empty, not an error, for
// unguarded files. Scores must be finite: a NaN confidence cannot be ranked.
func ReadScoredLabels(r io.Reader) (ScoredLabels, string, error) {
	br := bufio.NewReader(r)
	meta, err := readMeta(br)
	if err != nil {
		return nil, "", err
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	cr.Comment = '#'
	header, err := cr.Read()
	if err != nil {
		return nil, "", fmt.Errorf("%w: reading header: %v", ErrBadFormat, err)
	}
	if len(header) < 3 || header[0] != "pair_id" {
		return nil, "", fmt.Errorf("%w: scored-label header needs pair_id,label,score (got %v)", ErrBadFormat, header)
	}
	out := ScoredLabels{}
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, "", fmt.Errorf("%w: row %d: %v", ErrBadFormat, i+2, err)
		}
		if len(row) < 3 {
			return nil, "", fmt.Errorf("%w: row %d has %d fields, want >= 3", ErrBadFormat, i+2, len(row))
		}
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, "", fmt.Errorf("%w: row %d: pair id %q", ErrBadFormat, i+2, row[0])
		}
		if _, dup := out[id]; dup {
			return nil, "", fmt.Errorf("%w: row %d: duplicate pair id %d", ErrBadFormat, i+2, id)
		}
		match, err := ParseLabel(row[1])
		if err != nil {
			return nil, "", fmt.Errorf("%w: row %d: %v", ErrBadFormat, i+2, err)
		}
		score, err := strconv.ParseFloat(row[2], 64)
		if err != nil || math.IsNaN(score) || math.IsInf(score, 0) {
			return nil, "", fmt.Errorf("%w: row %d: score %q", ErrBadFormat, i+2, row[2])
		}
		out[id] = ScoredLabel{Match: match, Score: score}
	}
	return out, meta["fingerprint"], nil
}

// WriteFileAtomic writes via a temp file in the same directory, fsyncs it,
// renames it over the target, and fsyncs the directory — so the target is
// never left truncated or half-written, even across a power failure. It is
// the write discipline behind both cmd/humo's label files and the humod
// checkpoint journal.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadPairs parses a workload CSV of the form `pair_id,similarity` (header
// row required) into the instance pairs a Workload is built from. It is the
// format humod's workload-file session references use.
func ReadPairs(r io.Reader) ([]core.Pair, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.Comment = '#' // fingerprint metadata lines (WritePairsFingerprinted)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadFormat, err)
	}
	// Insist on the named header: a headerless file would otherwise lose
	// its first pair silently, changing the workload fingerprint.
	if len(header) < 2 || header[0] != "pair_id" {
		return nil, fmt.Errorf("%w: pair header needs pair_id,similarity (got %v)", ErrBadFormat, header)
	}
	var out []core.Pair
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrBadFormat, i+2, err)
		}
		if len(row) < 2 {
			return nil, fmt.Errorf("%w: row %d has %d fields, want >= 2", ErrBadFormat, i+2, len(row))
		}
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: pair id %q", ErrBadFormat, i+2, row[0])
		}
		sim, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: similarity %q", ErrBadFormat, i+2, row[1])
		}
		out = append(out, core.Pair{ID: id, Sim: sim})
	}
	return out, nil
}

// pairsHeader is the header row of a workload CSV.
const pairsHeader = "pair_id,similarity\n"

// AppendPairRows appends the workload-CSV data rows of pairs to dst, one
// `id,sim` line each with the similarity formatted to round-trip
// bit-exactly. The bytes are those csv.Writer produces for the same
// fields: integers and 'g'-formatted floats never need quoting. Callers
// that rewrite a growing workload keep the formatted rows and append only
// the new ones (see WritePairRows).
func AppendPairRows(dst []byte, pairs []core.Pair) []byte {
	for _, p := range pairs {
		dst = strconv.AppendInt(dst, int64(p.ID), 10)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, p.Sim, 'g', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}

// WritePairRows writes a workload CSV whose data rows AppendPairRows
// already formatted: the `# fingerprint:` comment when fingerprint is not
// empty, the header, then rows verbatim. The output is byte-identical to
// WritePairsFingerprinted over the same pairs.
func WritePairRows(w io.Writer, rows []byte, fingerprint string) error {
	if fingerprint != "" {
		if err := writeMeta(w, "fingerprint", fingerprint); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, pairsHeader); err != nil {
		return err
	}
	_, err := w.Write(rows)
	return err
}

// WritePairs writes a workload CSV, the inverse of ReadPairs. Rows are
// formatted and written in chunks, so memory stays bounded for any
// workload size.
func WritePairs(w io.Writer, pairs []core.Pair) error {
	const chunk = 4096 // pairs per write
	buf := []byte(pairsHeader)
	for {
		n := min(chunk, len(pairs))
		buf = AppendPairRows(buf, pairs[:n])
		pairs = pairs[n:]
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if len(pairs) == 0 {
			return nil
		}
		buf = buf[:0]
	}
}

// WritePairsFingerprinted writes a workload CSV with its fingerprint folded
// into a leading `# fingerprint: ...` comment, so one atomic file write
// carries both the data and its identity. ReadPairs skips the comment;
// readers that care about the fingerprint use ReadPairsFingerprint.
func WritePairsFingerprinted(w io.Writer, pairs []core.Pair, fingerprint string) error {
	if fingerprint != "" {
		if err := writeMeta(w, "fingerprint", fingerprint); err != nil {
			return err
		}
	}
	return WritePairs(w, pairs)
}

// ReadPairsFingerprint reads a workload CSV plus the fingerprint embedded
// by WritePairsFingerprinted. The fingerprint is empty — not an error — for
// files without one (pre-fingerprint writers, hand-built CSVs).
func ReadPairsFingerprint(r io.Reader) ([]core.Pair, string, error) {
	br := bufio.NewReader(r)
	meta, err := readMeta(br)
	if err != nil {
		return nil, "", err
	}
	pairs, err := ReadPairs(br)
	return pairs, meta["fingerprint"], err
}

// WriteCandidates writes scored candidate pairs as CSV
// (`pair_id,record_a,record_b,similarity`): the full output of candidate
// generation, with record positions preserved so a resolution run can show
// both records of a pair without regenerating candidates. Similarities are
// formatted to round-trip bit-exactly.
func WriteCandidates(w io.Writer, cands []blocking.Pair) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pair_id", "record_a", "record_b", "similarity"}); err != nil {
		return err
	}
	for i, c := range cands {
		if err := cw.Write([]string{
			strconv.Itoa(i),
			strconv.Itoa(c.A),
			strconv.Itoa(c.B),
			strconv.FormatFloat(c.Sim, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCandidates parses a candidates CSV, the inverse of WriteCandidates.
// Pair ids are positional (candidate i has id i); a file whose pair_id
// column disagrees with row positions is refused, because label files and
// checkpoints key on those positions.
func ReadCandidates(r io.Reader) ([]blocking.Pair, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrBadFormat, err)
	}
	if len(header) < 4 || header[0] != "pair_id" {
		return nil, fmt.Errorf("%w: candidates header needs pair_id,record_a,record_b,similarity (got %v)", ErrBadFormat, header)
	}
	var out []blocking.Pair
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrBadFormat, i+2, err)
		}
		if len(row) < 4 {
			return nil, fmt.Errorf("%w: row %d has %d fields, want >= 4", ErrBadFormat, i+2, len(row))
		}
		id, err := strconv.Atoi(row[0])
		if err != nil || id != i {
			return nil, fmt.Errorf("%w: row %d: pair id %q, want positional id %d", ErrBadFormat, i+2, row[0], i)
		}
		a, err := strconv.Atoi(row[1])
		if err != nil || a < 0 {
			return nil, fmt.Errorf("%w: row %d: record_a %q", ErrBadFormat, i+2, row[1])
		}
		b, err := strconv.Atoi(row[2])
		if err != nil || b < 0 {
			return nil, fmt.Errorf("%w: row %d: record_b %q", ErrBadFormat, i+2, row[2])
		}
		sim, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: similarity %q", ErrBadFormat, i+2, row[3])
		}
		out = append(out, blocking.Pair{A: a, B: b, Sim: sim})
	}
	return out, nil
}

// WritePending writes the review queue for the human: one row per pair that
// needs a label, with both records' attribute values side by side so the
// reviewer can decide without opening the source tables.
func WritePending(w io.Writer, ids []int, cands []blocking.Pair, ta, tb *records.Table) error {
	cw := csv.NewWriter(w)
	header := []string{"pair_id", "similarity"}
	for _, a := range ta.Attributes {
		header = append(header, "a_"+a)
	}
	for _, a := range tb.Attributes {
		header = append(header, "b_"+a)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, id := range ids {
		if id < 0 || id >= len(cands) {
			return fmt.Errorf("%w: pending pair id %d out of range", ErrBadFormat, id)
		}
		c := cands[id]
		row := []string{strconv.Itoa(id), strconv.FormatFloat(c.Sim, 'f', 4, 64)}
		row = append(row, ta.Records[c.A].Values...)
		row = append(row, tb.Records[c.B].Values...)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ResultRow is one line of the final resolution output.
type ResultRow struct {
	PairID int
	A, B   int
	Sim    float64
	Match  bool
	Source string // "machine" or "human"
}

// WriteResults writes the final labeling as CSV.
func WriteResults(w io.Writer, rows []ResultRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pair_id", "record_a", "record_b", "similarity", "label", "source"}); err != nil {
		return err
	}
	for _, r := range rows {
		label := "unmatch"
		if r.Match {
			label = "match"
		}
		if err := cw.Write([]string{
			strconv.Itoa(r.PairID),
			strconv.Itoa(r.A),
			strconv.Itoa(r.B),
			strconv.FormatFloat(r.Sim, 'f', 4, 64),
			label,
			r.Source,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
