package main

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"detobj/internal/golden"
)

// TestGolden pins two recorded traces byte for byte. Both runs reach the
// strong-election object's draws, so they pin the stream of Env.Rand as
// well as the scheduler's.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		k    int
		seed int64
	}{{3, 3}, {5, 9}} {
		file := "record-k" + strconv.Itoa(c.k) + "-seed" + strconv.FormatInt(c.seed, 10) + ".golden"
		args := []string{"-record", "-k", strconv.Itoa(c.k), "-seed", strconv.FormatInt(c.seed, 10)}
		golden.Run(t, file, "traces", args, func(w io.Writer) error { return recordTrace(w, c.k, c.seed) })
	}
}

func TestRecordAndCheckRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var buf bytes.Buffer
		if err := recordTrace(&buf, 3, seed); err != nil {
			t.Fatalf("seed %d: record: %v", seed, err)
		}
		verdict, err := checkTrace(&buf)
		if err != nil {
			t.Fatalf("seed %d: check: %v", seed, err)
		}
		if verdict != "linearizable" {
			t.Fatalf("seed %d: verdict %q", seed, verdict)
		}
	}
}

// TestRecordRejectsBadK: Algorithm 5 needs k >= 2, and a smaller k must
// be an error rather than a panic inside the construction.
func TestRecordRejectsBadK(t *testing.T) {
	for _, k := range []int{-1, 0, 1} {
		var buf bytes.Buffer
		if err := recordTrace(&buf, k, 1); err == nil {
			t.Errorf("-k %d accepted", k)
		}
		if buf.Len() != 0 {
			t.Errorf("-k %d wrote %q", k, buf.String())
		}
	}
}

func TestRecordLargerK(t *testing.T) {
	var buf bytes.Buffer
	if err := recordTrace(&buf, 5, 9); err != nil {
		t.Fatalf("record: %v", err)
	}
	if verdict, err := checkTrace(&buf); err != nil || verdict != "linearizable" {
		t.Fatalf("verdict %q err %v", verdict, err)
	}
}

func TestCheckRejectsGarbage(t *testing.T) {
	if _, err := checkTrace(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := checkTrace(strings.NewReader(`{"k":1,"events":[]}`)); err == nil {
		t.Error("invalid arity accepted")
	}
}

func TestCheckDetectsTamperedTrace(t *testing.T) {
	// A trace claiming a read of a value that was never written cannot
	// linearize.
	tampered := `{
	  "k": 3,
	  "object": "LW",
	  "events": [
	    {"seq":0,"kind":"call","proc":0,"object":"LW","op":"WRN","index":0,"value":"v0"},
	    {"seq":1,"kind":"return","proc":0,"object":"LW","op":"WRN","out":"ghost"}
	  ]
	}`
	verdict, err := checkTrace(strings.NewReader(tampered))
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if verdict != "NOT linearizable" {
		t.Errorf("verdict = %q, want NOT linearizable", verdict)
	}
}

func TestCheckOrphanReturnRejected(t *testing.T) {
	orphan := `{"k":3,"object":"LW","events":[
	  {"seq":0,"kind":"return","proc":0,"object":"LW","op":"WRN","out":"x"}
	]}`
	if _, err := checkTrace(strings.NewReader(orphan)); err == nil {
		t.Error("orphan return accepted")
	}
}

func TestCheckCallWithoutIndexRejected(t *testing.T) {
	bad := `{"k":3,"object":"LW","events":[
	  {"seq":0,"kind":"call","proc":0,"object":"LW","op":"WRN","value":"v"}
	]}`
	if _, err := checkTrace(strings.NewReader(bad)); err == nil {
		t.Error("call without index accepted")
	}
}
