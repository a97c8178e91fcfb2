package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// The references compute each workload's expected output in plain Go.
// They share no code with coreutils, interp or exec: a bug there cannot
// hide by being made twice.

// lines splits newline-terminated data into lines without the newline.
func lines(data []byte) [][]byte {
	ls := bytes.Split(data, []byte{'\n'})
	if n := len(ls); n > 0 && len(ls[n-1]) == 0 {
		ls = ls[:n-1]
	}
	return ls
}

// countRuns renders sorted values the way `uniq -c` does.
func countRuns(sorted []string) []byte {
	var out bytes.Buffer
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		fmt.Fprintf(&out, "%7d %s\n", j-i, sorted[i])
		i = j
	}
	return out.Bytes()
}

func asciiLower(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

func asciiUpper(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

// wordfreqReference: cat /words | tr A-Z a-z | sort | uniq -c >/freq
func wordfreqReference(in []file) ([]file, []byte) {
	ls := lines(asciiLower(in[0].data))
	sorted := make([]string, len(ls))
	for i, l := range ls {
		sorted[i] = string(l)
	}
	sort.Strings(sorted)
	return []file{{"/freq", countRuns(sorted)}}, nil
}

// withoutZZZ keeps the lines `grep -v zzz` keeps.
func withoutZZZ(data []byte) [][]byte {
	var kept [][]byte
	for _, l := range lines(data) {
		if !bytes.Contains(l, []byte("zzz")) {
			kept = append(kept, l)
		}
	}
	return kept
}

// filterChainReference: grep -v zzz | tr a-z A-Z | cut -c 1-40 | wc -l.
// tr and cut keep the line count, so only grep decides the answer.
func filterChainReference(in []file) ([]file, []byte) {
	n := len(withoutZZZ(in[0].data))
	return []file{{"/count", []byte(fmt.Sprintf("%d\n", n))}}, nil
}

func joinLines(ls [][]byte) []byte {
	var out bytes.Buffer
	for _, l := range ls {
		out.Write(l)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// listWriteReference: tr a-z A-Z; sed s/the/THE/; cut -c 1-60; grep -v zzz,
// one per input.
func listWriteReference(in []file) ([]file, []byte) {
	sed := lines(in[1].data)
	for i, l := range sed {
		sed[i] = bytes.Replace(l, []byte("the"), []byte("THE"), 1)
	}
	cut := lines(in[2].data)
	for i, l := range cut {
		if len(l) > 60 {
			cut[i] = l[:60]
		}
	}
	return []file{
		{"/o0", asciiUpper(in[0].data)},
		{"/o1", joinLines(sed)},
		{"/o2", joinLines(cut)},
		{"/o3", joinLines(withoutZZZ(in[3].data))},
	}, nil
}

// field returns the 1-based space-delimited field `cut -d ' ' -f n`
// prints: the whole line when it has no delimiter, empty when it has too
// few fields.
func field(line string, n int) string {
	fs := strings.Split(line, " ")
	if len(fs) == 1 {
		return line
	}
	if n > len(fs) {
		return ""
	}
	return fs[n-1]
}

func classify(p string) string {
	switch {
	case strings.HasPrefix(p, "/api/"):
		return "api"
	case strings.HasPrefix(p, "/static/"):
		return "static"
	case strings.HasPrefix(p, "/log"):
		return "auth"
	}
	return "page"
}

// mixReference mirrors mixScript: per log file the distinct clients of
// 200 responses, the status histogram, the kind histogram of 500
// responses, and the loop's running total on stdout.
func mixReference(in []file) ([]file, []byte) {
	var out []file
	total := 0
	for _, f := range in {
		base := f.path[strings.LastIndexByte(f.path, '/')+1:]
		clients := map[string]bool{}
		var statuses, kinds []string
		n404 := 0
		for _, lb := range lines(f.data) {
			l := string(lb)
			if strings.Contains(l, " 200 ") {
				clients[field(l, 1)] = true
			}
			statuses = append(statuses, field(l, 8))
			if strings.Contains(l, " 404 ") {
				n404++
			}
			if strings.Contains(l, " 500 ") {
				kinds = append(kinds, classify(field(l, 6)))
			}
		}
		sort.Strings(statuses)
		sort.Strings(kinds)
		out = append(out,
			file{"/out/" + base + ".clients", []byte(fmt.Sprintf("%d\n", len(clients)))},
			file{"/out/" + base + ".status", countRuns(statuses)},
			file{"/out/" + base + ".kinds", countRuns(kinds)},
		)
		for i := 1; i <= mixLoopIters; i++ {
			var q string
			switch i % 3 {
			case 0:
				q = "/api/" + base
			case 1:
				q = "/static/" + base
			default:
				q = "/" + base
			}
			total += (n404+i)%7 + len(classify(q))
		}
	}
	return out, []byte(fmt.Sprintf("%d\n", total))
}
