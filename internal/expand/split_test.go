package expand

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"jash/internal/pattern"
	"jash/internal/vfs"
)

// refField accumulates both the literal text and the glob pattern (where
// quoted characters are escaped) of one field.
type refField struct {
	text string
	pat  string
}

// refSplit is the splitter fields replaced, kept as its oracle: it builds
// each field a byte at a time, with its glob pattern alongside. Literal
// text is never split; a backslash anywhere unquoted is a byte of the
// field and of the pattern.
func refSplit(ifs string, frags []frag) []refField {
	isWS := func(c byte) bool {
		return strings.IndexByte(ifs, c) >= 0 && (c == ' ' || c == '\t' || c == '\n')
	}
	isDelim := func(c byte) bool {
		return strings.IndexByte(ifs, c) >= 0
	}
	var fields []refField
	var cur refField
	started := false
	prevNonWS := true // leading non-ws delimiter produces an empty field
	emit := func() {
		fields = append(fields, cur)
		cur = refField{}
		started = false
	}
	for _, f := range frags {
		switch {
		case f.fieldBreak:
			emit()
			started = true // "$@" fields exist even when empty
		case f.quoted:
			cur.text += f.s
			cur.pat += escapeMeta(f.s)
			started = true
			prevNonWS = false
		default:
			splits := ifs != "" && !f.lit
			for i := 0; i < len(f.s); i++ {
				c := f.s[i]
				switch {
				case splits && isWS(c):
					if started {
						emit()
					}
					prevNonWS = false
				case splits && isDelim(c):
					if started {
						emit()
					} else if prevNonWS {
						emit() // adjacent non-ws delimiters make empty fields
					}
					prevNonWS = true
				default:
					cur.text += f.s[i : i+1]
					cur.pat += f.s[i : i+1]
					started = true
					prevNonWS = false
				}
			}
		}
	}
	if started {
		emit()
	}
	return fields
}

// refGlob applies pathname expansion to each of refSplit's fields.
func refGlob(x *Expander, fields []refField) []string {
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if x.NoGlob || x.FS == nil || !pattern.HasMeta(f.pat) {
			out = append(out, f.text)
			continue
		}
		matches := x.FS.Glob(x.Dir, f.pat)
		if len(matches) == 0 {
			out = append(out, f.text)
			continue
		}
		out = append(out, matches...)
	}
	return out
}

// splitExpander is an expander over a directory whose names the table's
// patterns match: "a b", "a*", "ab", "b", "x:y", "\" and "a\x".
func splitExpander(ifs string) *Expander {
	fs := vfs.New()
	for _, name := range []string{"a b", "a*", "ab", "b", "x:y", `\`, `a\x`} {
		fs.WriteFile("/d/"+name, nil)
	}
	return &Expander{
		Lookup: func(name string) (string, bool) { return ifs, name == "IFS" },
		FS:     fs,
		Dir:    "/d",
	}
}

// checkSplit compares fields with the reference over one fragment list.
func checkSplit(t *testing.T, ifs string, frags []frag) {
	t.Helper()
	x := splitExpander(ifs)
	want := refGlob(x, refSplit(ifs, frags))
	got := x.fields(frags, nil)
	if !slices.Equal(got, want) || len(got) != len(want) {
		t.Errorf("IFS %q, %+v: fields %q, reference %q", ifs, frags, got, want)
	}
}

// splitIFS are the separator sets the oracle runs under: none, the
// default, one non-whitespace character, and whitespace mixed with it.
var splitIFS = []string{"", " \t\n", ":", " :"}

func TestFieldsMatchReference(t *testing.T) {
	u := func(s string) frag { return frag{s: s} }
	q := func(s string) frag { return frag{s: s, quoted: true} }
	l := func(s string) frag { return frag{s: s, lit: true} }
	brk := frag{fieldBreak: true}
	for _, frags := range [][]frag{
		{u("a b")},
		{u("  a   b  ")},
		{u("x:y::z")},
		{u(":a:"), u(": b :")},
		{u("a"), q(" b "), u("c d")},
		{q("")},
		{u("")},
		{u(" "), q(""), u(" ")},
		{u(`a\ b`), u(`\:c`)},
		{u(`a\`), q("*")},
		{u(`\\`), u("*")},
		{u("a*")},
		{u("a"), q("*")},
		{q("a"), u("*")},
		{u("[ab]")},
		{u("["), q("]"), u("b]")},
		{u("?"), brk, u("a?"), brk, q("")},
		{brk, brk},
		{q("x"), brk, u(": :"), brk, q("y")},
		{u("x\\:y"), u("\\")},
		{u("a\tb\nc")},
		{u("é:è é")},
		{l("a b:c"), u(" d:e")},
		{l(""), u(" "), l("")},
		{u(":"), l("a*"), q(":")},
		{u(`a\`), l("*")},
		{l("[ab]"), u(`\`)},
	} {
		for _, ifs := range splitIFS {
			checkSplit(t, ifs, frags)
		}
	}
}

// FuzzSplit checks fields against the reference on arbitrary fragment
// lists: each byte of the input is text, except 0x01 (which toggles
// quoting for the next fragment), 0x04 (which toggles literal text for
// it), 0x02 (a new fragment) and 0x03 (a "$@" field break). Run with
// `go test -fuzz=FuzzSplit ./internal/expand/`.
func FuzzSplit(f *testing.F) {
	for _, seed := range []string{
		"a b", "\x01 a \x02b*", "x:y::z\x03\x01", `a\ b\`, "[a\x02\x01]\x02b]", " : a\x03\x03",
		"\x04a b\x02 :\x04c*", "a\\\x02\x04*",
	} {
		f.Add(seed, uint8(0))
	}
	f.Fuzz(func(t *testing.T, src string, which uint8) {
		var frags []frag
		cur := frag{}
		for i := 0; i < len(src); i++ {
			switch src[i] {
			case 0x01:
				cur.quoted = !cur.quoted
			case 0x04:
				cur.lit = !cur.lit
			case 0x02:
				frags = append(frags, cur)
				cur = frag{quoted: cur.quoted, lit: cur.lit}
			case 0x03:
				frags = append(frags, cur, frag{fieldBreak: true})
				cur = frag{}
			default:
				cur.s += src[i : i+1]
			}
		}
		checkSplit(t, splitIFS[int(which)%len(splitIFS)], append(frags, cur))
	})
}

// TestFieldsAllocate pins the splitter's cost once its scratch is warm: a
// field that is one piece of one fragment is that substring, so a word
// whose fields are all such pieces allocates only its field list; a field
// joined from several pieces allocates its string.
func TestFieldsAllocate(t *testing.T) {
	x := testExpander(map[string]string{"x": "abc", "p": "a b  c"})
	for _, c := range []struct {
		src   string
		bound float64
	}{
		{`$x`, 1},
		{`"$x"`, 1},
		{`$p`, 3}, // three fields: the list grows twice
		{`a$x`, 2},
		{`a\ b`, 2},
	} {
		w := wordOf(t, c.src)
		x.ExpandWord(w)
		if n := testing.AllocsPerRun(100, func() { x.ExpandWord(w) }); n > c.bound {
			t.Errorf("%s allocates %v times, want at most %v", c.src, n, c.bound)
		}
	}
}

// TestFieldsDoNotPinLargeFragments pins shareMax: a field that is a small
// part of a large fragment is a copy, one that is most of it shares it.
func TestFieldsDoNotPinLargeFragments(t *testing.T) {
	big := "a " + strings.Repeat("b", 2*shareMax)
	x := testExpander(map[string]string{"p": big})
	fields, err := x.ExpandWord(wordOf(t, `$p`))
	if err != nil || len(fields) != 2 {
		t.Fatalf("fields %d, err %v", len(fields), err)
	}
	start := uintptr(unsafe.Pointer(unsafe.StringData(big)))
	within := func(f string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(f)))
		return p >= start && p < start+uintptr(len(big))
	}
	if within(fields[0]) {
		t.Errorf("the 1-byte field shares its %d-byte fragment", len(big))
	}
	if !within(fields[1]) {
		t.Errorf("the %d-byte field is a copy of most of its fragment", len(fields[1]))
	}
}
