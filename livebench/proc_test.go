package main

import (
	"os"
	"testing"
)

func TestParseProcIO(t *testing.T) {
	text := `rchar: 3980
wchar: 120
syscr: 9
syscw: 4
read_bytes: 0
write_bytes: 0
cancelled_write_bytes: 0
`
	got, err := parseProcIO(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := (procIO{RChar: 3980, WChar: 120, SyscR: 9, SyscW: 4}); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if _, err := parseProcIO("rchar: 1\nwchar: 2\n"); err == nil {
		t.Error("missing syscall counts should be an error")
	}
	if _, err := parseProcIO("rchar: x\nwchar: 2\nsyscr: 1\nsyscw: 1\n"); err == nil {
		t.Error("a malformed count should be an error")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	text := "4242 (live (bench) x) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 75 0 0 20 0 9 0 100 0 0"
	got, err := parseProcStat(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.UTime != 250 || got.STime != 75 {
		t.Fatalf("got %+v, want utime 250 stime 75", got)
	}
	if us := got.cpuUS(); us != 3.25e6 {
		t.Errorf("cpuUS = %v, want 3.25e6", us)
	}
	if _, err := parseProcStat("4242 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line should be an error")
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Skipf("no /proc on this system: %v", err)
	}
	if s.IO.RChar == 0 {
		t.Errorf("a running test has read something: %+v", s.IO)
	}
}
