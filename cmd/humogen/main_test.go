package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"humo/internal/dataio"
)

func writeCSV(t *testing.T, path string, rows []string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// embeddedFingerprint returns the fingerprint a workload CSV carries in its
// leading comment.
func embeddedFingerprint(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, fp, err := dataio.ReadPairsFingerprint(f)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func fixtureTables(t *testing.T, dir string) (aPath, bPath string) {
	t.Helper()
	aPath = filepath.Join(dir, "a.csv")
	bPath = filepath.Join(dir, "b.csv")
	writeCSV(t, aPath, []string{
		"name,description",
		"acme turbo widget,the turbo widget by acme",
		"globex quiet gadget,a gadget that is quiet",
		"initech red stapler,classic red stapler",
	})
	writeCSV(t, bPath, []string{
		"name,description",
		"acme turbo widget,the turbo widget by acme",
		"initech crimson stapler,classic red stapler",
		"unrelated thing entirely,nothing shared here",
	})
	return aPath, bPath
}

// TestRunGenerate drives the generate mode end to end: workload CSV,
// fingerprint sidecar and candidates CSV land on disk, self-consistent and
// identical at any worker count.
func TestRunGenerate(t *testing.T) {
	dir := t.TempDir()
	aPath, bPath := fixtureTables(t, dir)
	outPath := filepath.Join(dir, "workload.csv")
	candsPath := filepath.Join(dir, "cands.csv")
	args := []string{
		"-a", aPath, "-b", bPath,
		"-spec", "name:jaccard,description:cosine",
		"-block", "token", "-min-shared", "1", "-threshold", "0.2",
		"-out", outPath, "-cands", candsPath,
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "candidate pairs") || !strings.Contains(out.String(), "fingerprint") {
		t.Errorf("stdout missing summary: %s", out.String())
	}

	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := dataio.ReadPairs(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("empty workload")
	}
	f, err = os.Open(candsPath)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := dataio.ReadCandidates(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(pairs) {
		t.Fatalf("%d candidates but %d workload pairs", len(cands), len(pairs))
	}
	for i, p := range pairs {
		if p.ID != i || p.Sim != cands[i].Sim {
			t.Fatalf("pair %d: workload %+v vs candidate %+v", i, p, cands[i])
		}
	}
	fp1 := embeddedFingerprint(t, outPath)
	if fp1 == "" {
		t.Fatal("empty embedded fingerprint")
	}
	if _, err := os.Stat(outPath + ".fp"); !os.IsNotExist(err) {
		t.Errorf("a .fp sidecar was written next to the workload (stat err %v)", err)
	}

	// Re-generate with a different worker count: byte-identical outputs.
	out2 := filepath.Join(dir, "workload2.csv")
	args2 := []string{
		"-a", aPath, "-b", bPath,
		"-spec", "name:jaccard,description:cosine",
		"-block", "token", "-min-shared", "1", "-threshold", "0.2",
		"-workers", "3", "-out", out2,
	}
	if code := run(args2, &out, &errb); code != 0 {
		t.Fatalf("workers=3 exit %d, stderr: %s", code, errb.String())
	}
	b1, _ := os.ReadFile(outPath)
	b2, _ := os.ReadFile(out2)
	if !bytes.Equal(b1, b2) {
		t.Error("workload bytes differ across worker counts")
	}
	if fp2 := embeddedFingerprint(t, out2); fp1 != fp2 {
		t.Error("fingerprint differs across worker counts")
	}
}

func TestRunGenerateUsageErrors(t *testing.T) {
	dir := t.TempDir()
	aPath, bPath := fixtureTables(t, dir)
	outPath := filepath.Join(dir, "w.csv")
	cases := [][]string{
		{"-a", aPath}, // missing -b/-spec/-out
		{"-a", aPath, "-b", bPath, "-spec", "name:jaccard"},          // missing -out
		{"-a", aPath, "-b", bPath, "-spec", "nope", "-out", outPath}, // bad spec
		{"-a", aPath, "-b", bPath, "-spec", "name:jaccard", "-out", outPath, "-block", "nope"},
		{"-a", aPath, "-b", bPath, "-spec", "name:jaccard", "-out", outPath, "-threshold", "1"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
	// Missing input file is a runtime error, not usage.
	var out, errb bytes.Buffer
	if code := run([]string{"-a", filepath.Join(dir, "nope.csv"), "-b", bPath, "-spec", "name:jaccard", "-out", outPath}, &out, &errb); code != 1 {
		t.Errorf("missing table exit %d, want 1", code)
	}
}

// TestRunDatasetLogistic smoke-tests the seed dataset mode through the
// refactored run.
func TestRunDatasetLogistic(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-dataset", "logistic", "-n", "2000"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "logistic(tau=14") {
		t.Errorf("unexpected stdout: %s", out.String())
	}
	if code := run([]string{"-dataset", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown dataset exit %d, want 2", code)
	}
}

// TestRunVersionFlag: -version prints one identifying line and exits 0.
func TestRunVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-version"}, &out, &errb); code != 0 {
		t.Fatalf("-version exit %d, stderr %q", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "humogen ") {
		t.Errorf("-version output %q does not lead with the command name", out.String())
	}
}
