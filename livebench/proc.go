package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// procIO is the subset of /proc/<pid>/io the wire metrics use.
type procIO struct {
	RChar, WChar, SyscR, SyscW uint64
}

// parseProcIO reads the "key: value" lines of /proc/<pid>/io.
func parseProcIO(s string) (procIO, error) {
	var io procIO
	seen := 0
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io: field %s: %w", k, err)
		}
		switch k {
		case "rchar":
			io.RChar = n
		case "wchar":
			io.WChar = n
		case "syscr":
			io.SyscR = n
		case "syscw":
			io.SyscW = n
		default:
			continue
		}
		seen++
	}
	if seen != 4 {
		return procIO{}, fmt.Errorf("proc io: found %d of rchar, wchar, syscr, syscw", seen)
	}
	return io, nil
}

func (a procIO) sub(b procIO) procIO {
	return procIO{a.RChar - b.RChar, a.WChar - b.WChar, a.SyscR - b.SyscR, a.SyscW - b.SyscW}
}

// clockTicks is USER_HZ, the unit of the utime/stime fields. Linux fixes it
// at 100 on every architecture the benchmark runs on.
const clockTicks = 100

// procStat is the CPU time of a process, from /proc/<pid>/stat.
type procStat struct {
	UTime, STime uint64 // clock ticks
}

// cpuUS is user plus system CPU time in microseconds.
func (s procStat) cpuUS() float64 {
	return float64(s.UTime+s.STime) * 1e6 / clockTicks
}

// parseProcStat extracts utime and stime (fields 14 and 15). The command
// name in field 2 may itself contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStat(s string) (procStat, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return procStat{}, fmt.Errorf("proc stat: stime: %w", err)
	}
	return procStat{UTime: u, STime: st}, nil
}

func (a procStat) sub(b procStat) procStat {
	return procStat{a.UTime - b.UTime, a.STime - b.STime}
}

// procSample is one reading of a process's counters.
type procSample struct {
	IO   procIO
	Stat procStat
}

func readProc(pid int) (procSample, error) {
	ioText, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procSample{}, err
	}
	statText, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	io, err := parseProcIO(string(ioText))
	if err != nil {
		return procSample{}, err
	}
	st, err := parseProcStat(string(statText))
	if err != nil {
		return procSample{}, err
	}
	return procSample{IO: io, Stat: st}, nil
}

func (a procSample) sub(b procSample) procSample {
	return procSample{IO: a.IO.sub(b.IO), Stat: a.Stat.sub(b.Stat)}
}

func (a procSample) add(b procSample) procSample {
	return procSample{
		IO: procIO{a.IO.RChar + b.IO.RChar, a.IO.WChar + b.IO.WChar,
			a.IO.SyscR + b.IO.SyscR, a.IO.SyscW + b.IO.SyscW},
		Stat: procStat{a.Stat.UTime + b.Stat.UTime, a.Stat.STime + b.Stat.STime},
	}
}
