package interp

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"jash/internal/coreutils"
	"jash/internal/syntax"
)

// builtin is a shell builtin: unlike utilities it can mutate shell state.
type builtin func(in *Interp, args []string) int

var builtins map[string]builtin

func init() {
	// Populated in init to avoid an initialization cycle through eval.
	builtins = map[string]builtin{
		":":        builtinColon,
		"cd":       builtinCd,
		"pwd":      builtinPwd,
		"export":   builtinExport,
		"readonly": builtinReadonly,
		"unset":    builtinUnset,
		"set":      builtinSet,
		"shift":    builtinShift,
		"exit":     builtinExit,
		"return":   builtinReturn,
		"break":    builtinBreak,
		"continue": builtinContinue,
		"eval":     builtinEval,
		"read":     builtinRead,
		"type":     builtinType,
		"wait":     func(*Interp, []string) int { return 0 },
		"umask":    builtinUmask,
		"trap":     builtinTrap,
		"getopts":  builtinGetopts,
		"exec":     builtinExec,
		"local":    builtinLocal,
	}
}

// BuiltinNames lists the builtin registry's names, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func builtinColon(*Interp, []string) int { return 0 }

// printf writes a builtin's output. dash runs its builtins in the shell's
// own process, so SIGPIPE ends the whole stage when one writes into a pipe
// whose reader has gone; a failed write here ends the stage the same way,
// with coreutils.StatusBrokenPipe and no diagnostic (runUtility does it
// for echo and printf).
func (in *Interp) printf(format string, args ...any) {
	if _, err := fmt.Fprintf(in.Stdout, format, args...); err != nil {
		panic(exitSignal{coreutils.StatusBrokenPipe})
	}
}

func builtinCd(in *Interp, args []string) int {
	target := in.Getenv("HOME")
	if len(args) > 1 {
		target = args[1]
	}
	if target == "" {
		fmt.Fprintln(in.Stderr, "cd: no directory")
		return 1
	}
	if target == "-" {
		target = in.Getenv("OLDPWD")
		if target == "" {
			fmt.Fprintln(in.Stderr, "cd: OLDPWD not set")
			return 1
		}
		in.printf("%s\n", target)
	}
	dest := in.lookPath(target)
	fi, err := in.FS.Stat(dest)
	if err != nil || !fi.IsDir {
		fmt.Fprintf(in.Stderr, "cd: %s: not a directory\n", target)
		return 1
	}
	in.Setenv("OLDPWD", in.Dir)
	in.Dir = dest
	in.Setenv("PWD", dest)
	return 0
}

func builtinPwd(in *Interp, args []string) int {
	in.printf("%s\n", in.Dir)
	return 0
}

func builtinExport(in *Interp, args []string) int {
	if len(args) == 1 || args[1] == "-p" {
		env := in.Environ()
		sort.Strings(env)
		for _, e := range env {
			in.printf("export %s\n", e)
		}
		return 0
	}
	return declare(in, args, func(v *Variable) { v.Exported = true })
}

func builtinReadonly(in *Interp, args []string) int {
	return declare(in, args, func(v *Variable) { v.ReadOnly = true })
}

// declare is export and readonly: each NAME[=value] operand is assigned, if
// it brings a value (a readonly NAME ends the shell), and flagged.
func declare(in *Interp, args []string, flag func(*Variable)) int {
	for _, a := range args[1:] {
		name, value, hasValue := strings.Cut(a, "=")
		if hasValue {
			in.mustAssign(name, value)
		}
		v := in.Vars[name]
		flag(&v)
		in.Vars[name] = v
	}
	return 0
}

// builtinUnset removes variables, or with -f functions, as dash does: a
// name is never both.
func builtinUnset(in *Interp, args []string) int {
	names, funcs := args[1:], false
	for ; len(names) > 0 && (names[0] == "-f" || names[0] == "-v"); names = names[1:] {
		funcs = names[0] == "-f"
	}
	for _, a := range names {
		if funcs {
			delete(in.Funcs, a)
			continue
		}
		if v, ok := in.Vars[a]; ok && v.ReadOnly {
			fmt.Fprintf(in.Stderr, "unset: %s: readonly\n", a)
			return 1
		}
		delete(in.Vars, a)
	}
	return 0
}

func builtinSet(in *Interp, args []string) int {
	if len(args) == 1 {
		names := make([]string, 0, len(in.Vars))
		for name := range in.Vars {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			in.printf("%s=%s\n", name, in.Vars[name].Value)
		}
		return 0
	}
	i, params := 1, false
	for ; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			i, params = i+1, true // `set --` alone empties the list
			break
		}
		if len(a) >= 2 && (a[0] == '-' || a[0] == '+') {
			on := a[0] == '-'
			for _, f := range a[1:] {
				switch f {
				case 'e':
					in.ErrExit = on
				case 'f':
					in.NoGlob = on
				case 'u':
					in.NoUnset = on
				case 'x':
					in.XTrace = on
				default:
					fmt.Fprintf(in.Stderr, "set: unknown option -%c\n", f)
					return 2
				}
			}
			continue
		}
		break
	}
	if i < len(args) || params {
		in.Params = append([]string(nil), args[i:]...)
	}
	return 0
}

func builtinShift(in *Interp, args []string) int {
	n := 1
	if len(args) > 1 {
		var err error
		n, err = strconv.Atoi(args[1])
		if err != nil || n < 0 {
			fmt.Fprintf(in.Stderr, "shift: bad count %q\n", args[1])
			return 1
		}
	}
	if n > len(in.Params) {
		fmt.Fprintln(in.Stderr, "shift: shift count out of range")
		return 1
	}
	in.Params = in.Params[n:]
	return 0
}

func builtinExit(in *Interp, args []string) int {
	status := in.Status
	if len(args) > 1 {
		if n, err := strconv.Atoi(args[1]); err == nil {
			status = n & 0xff
		}
	}
	// The EXIT trap fires on explicit exit, seeing exit's status as $?;
	// RunExitTrap consumes the action, so a driver's shutdown call later
	// is a no-op.
	in.Status = status
	in.RunExitTrap()
	panic(exitSignal{in.Status})
}

func builtinReturn(in *Interp, args []string) int {
	status := in.Status
	if len(args) > 1 {
		if n, err := strconv.Atoi(args[1]); err == nil {
			status = n & 0xff
		}
	}
	panic(returnSignal{status})
}

func builtinBreak(in *Interp, args []string) int {
	if in.loopDepth == 0 {
		return 0
	}
	levels := 1
	if len(args) > 1 {
		if n, err := strconv.Atoi(args[1]); err == nil && n > 0 {
			levels = n
		}
	}
	panic(breakSignal{levels})
}

func builtinContinue(in *Interp, args []string) int {
	if in.loopDepth == 0 {
		return 0
	}
	levels := 1
	if len(args) > 1 {
		if n, err := strconv.Atoi(args[1]); err == nil && n > 0 {
			levels = n
		}
	}
	panic(continueSignal{levels})
}

func builtinEval(in *Interp, args []string) int {
	src := strings.Join(args[1:], " ")
	if strings.TrimSpace(src) == "" {
		return 0
	}
	script, err := syntax.Parse(src)
	if err != nil {
		fmt.Fprintf(in.Stderr, "eval: %v\n", err)
		return 2
	}
	for _, st := range script.Stmts {
		in.stmt(st)
	}
	return in.Status
}

// builtinRead reads one line from stdin into the named variables, with
// IFS splitting; extra fields go to the last variable. -r is accepted
// (we never treat backslash specially here anyway).
func builtinRead(in *Interp, args []string) int {
	names := args[1:]
	if len(names) > 0 && names[0] == "-r" {
		names = names[1:]
	}
	if len(names) == 0 {
		names = []string{"REPLY"}
	}
	var line strings.Builder
	buf := make([]byte, 1)
	got := false
	for {
		n, err := in.Stdin.Read(buf)
		if n > 0 {
			if buf[0] == '\n' {
				got = true
				break
			}
			line.WriteByte(buf[0])
			got = true
		}
		if err != nil {
			break
		}
	}
	if !got && line.Len() == 0 {
		return 1 // EOF
	}
	text := line.String()
	ifs := " \t\n"
	if v, ok := in.Vars["IFS"]; ok {
		ifs = v.Value
	}
	fields := splitForRead(text, ifs, len(names))
	for i, name := range names {
		value := ""
		if i < len(fields) {
			value = fields[i]
		}
		if err := in.assign(name, value); err != nil {
			fmt.Fprintf(in.Stderr, "read: %v\n", err)
			return 2
		}
	}
	return 0
}

// splitForRead splits for the read builtin: at most max fields, with the
// remainder joined into the final field.
func splitForRead(s, ifs string, max int) []string {
	if max <= 1 {
		return []string{strings.Trim(s, ifsWhitespace(ifs))}
	}
	var fields []string
	rest := strings.TrimLeft(s, ifsWhitespace(ifs))
	for len(fields) < max-1 && rest != "" {
		idx := strings.IndexAny(rest, ifs)
		if idx < 0 {
			break
		}
		fields = append(fields, rest[:idx])
		rest = strings.TrimLeft(rest[idx:], ifs)
	}
	if rest != "" || len(fields) == 0 {
		fields = append(fields, strings.TrimRight(rest, ifsWhitespace(ifs)))
	}
	return fields
}

func ifsWhitespace(ifs string) string {
	var b strings.Builder
	for _, c := range ifs {
		if c == ' ' || c == '\t' || c == '\n' {
			b.WriteRune(c)
		}
	}
	return b.String()
}

func builtinType(in *Interp, args []string) int {
	status := 0
	for _, name := range args[1:] {
		switch {
		case builtins[name] != nil:
			in.printf("%s is a shell builtin\n", name)
		case in.Funcs[name] != nil:
			in.printf("%s is a function\n", name)
		default:
			if _, ok := coreutils.Lookup(name); ok {
				in.printf("%s is %s\n", name, path.Join("/bin", name))
			} else {
				fmt.Fprintf(in.Stderr, "type: %s: not found\n", name)
				status = 1
			}
		}
	}
	return status
}

// builtinExec without arguments applies its redirections permanently;
// with arguments it runs the command and exits with its status.
func builtinExec(in *Interp, args []string) int {
	if len(args) == 1 {
		return 0
	}
	in.dispatch(args[1:])
	panic(exitSignal{in.Status})
}

// builtinLocal declares function-scoped variables: the shadowed (or
// previously unset) binding is recorded in the innermost call frame and
// restored when the function returns. Outside a function it degrades to
// plain assignment.
func builtinLocal(in *Interp, args []string) int {
	var frame map[string]*Variable
	if top := len(in.localFrames) - 1; top >= 0 {
		if in.localFrames[top] == nil {
			in.localFrames[top] = map[string]*Variable{}
		}
		frame = in.localFrames[top]
	}
	for _, a := range args[1:] {
		name, value, hasValue := strings.Cut(a, "=")
		if frame != nil {
			if _, saved := frame[name]; !saved {
				if old, ok := in.Vars[name]; ok {
					prev := old
					frame[name] = &prev
				} else {
					frame[name] = nil
				}
			}
		}
		switch {
		case hasValue:
			in.mustAssign(name, value)
		case frame != nil:
			// Inside a function `local x` declares a fresh empty local,
			// regardless of any outer value.
			in.Setenv(name, "")
		default:
			if _, ok := in.Vars[name]; !ok {
				in.Setenv(name, "")
			}
		}
	}
	return 0
}
