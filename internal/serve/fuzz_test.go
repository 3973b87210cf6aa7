package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeCreateRequest holds the humod request decoder to its contract:
// arbitrary bytes either yield a CreateRequest whose spec would survive
// Manager.Create's own validation, or an error — never a panic. The seed
// corpus covers a valid request, truncated JSON, an id that is unsafe as a
// file name, and conflicting workload sources; `go test` replays the seeds
// as regular tests, so the corpus cannot rot.
func FuzzDecodeCreateRequest(f *testing.F) {
	valid, err := json.Marshal(CreateRequest{ID: "orders", Spec: Spec{
		Method: "hybrid", Seed: 7, Alpha: 0.9, Beta: 0.9, Theta: 0.9,
		Pairs: []SpecPair{{ID: 0, Sim: 0.1}, {ID: 1, Sim: 0.9}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"id":"../escape","method":"base","alpha":0.9,"beta":0.9,"theta":0.9,"pairs":[{"id":0,"sim":0.5}]}`))
	f.Add([]byte(`{"method":"base","alpha":0.9,"beta":0.9,"theta":0.9,"pairs":[{"id":0,"sim":0.5}],"workload_file":"both.csv"}`))
	f.Add([]byte(`{"method":"budgeted","pairs":[{"id":0,"sim":0.5}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeCreateRequest(data)
		if err != nil {
			return
		}
		// A decoded request must be internally consistent: the id is safe
		// as a file stem and the spec re-validates.
		if req.ID != "" && !idPattern.MatchString(req.ID) {
			t.Fatalf("decoder accepted unsafe id %q", req.ID)
		}
		if err := req.Spec.Validate(); err != nil {
			t.Fatalf("decoder accepted a spec its own validation refuses: %v", err)
		}
	})
}

// FuzzJournalRead holds the journal reader to its torn-tail contract over
// arbitrary bytes, in both line formats: it never panics, refuses only with
// errJournalCorrupt, reports a complete prefix inside the input that ends
// on a line boundary, and reading that prefix alone yields the same lines — so truncating a
// recovered journal to its complete prefix loses nothing it replayed.
func FuzzJournalRead(f *testing.F) {
	f.Add([]byte(`{"v":1,"seq":1,"labels":{"1":true}}` + "\n" + `{"v":1,"seq":2,"lab`))
	f.Add([]byte(`{"v":1,"seq":1,"rows_a":[["x","y"]]}` + "\n\n" + `{"v":1,"seq":2,"rows_b":[["z","w"]]}` + "\n"))
	f.Add([]byte(`{"v":1,"seq":1,"labels":{"x":false}}` + "\n" + `{"v":1,"seq":3,"labels":{}}` + "\n"))
	f.Add([]byte(`{"v":2,"seq":1}` + "\n"))
	f.Add([]byte("not json\n  \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJournalRead[deltaLine](t, data)
		checkJournalRead[appendLine](t, data)
	})
}

func checkJournalRead[L journalLine](t *testing.T, data []byte) {
	t.Helper()
	lines, complete, err := readJournal[L](bytes.NewReader(data))
	if err != nil {
		if !errors.Is(err, errJournalCorrupt) {
			t.Fatalf("%T: error %v does not wrap errJournalCorrupt", lines, err)
		}
		return
	}
	if complete < 0 || complete > int64(len(data)) {
		t.Fatalf("%T: complete = %d outside the %d-byte input", lines, complete, len(data))
	}
	if complete > 0 && data[complete-1] != '\n' {
		t.Fatalf("%T: complete prefix of %d bytes ends mid-line", lines, complete)
	}
	again, complete2, err := readJournal[L](bytes.NewReader(data[:complete]))
	if err != nil || complete2 != complete || !reflect.DeepEqual(again, lines) {
		t.Fatalf("%T: the complete prefix reads back as %v (complete %d, err %v), want %v (complete %d)",
			lines, again, complete2, err, lines, complete)
	}
}
