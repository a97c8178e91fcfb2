package interp

// The trap, getopts, and umask builtins: POSIX special machinery that
// scripts in the wild use constantly and whose absence previously
// surfaced as "command not found" (trap, getopts) or a silent no-op
// (umask).

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// builtinTrap implements `trap [ACTION CONDITION...]`. With no operands
// it prints the installed traps. ACTION "-" (or an empty string) resets
// the named conditions. Only the EXIT (0) condition ever fires in this
// hermetic shell — there are no signals to receive — but other condition
// names are stored and printable so scripts that install them keep
// working.
func builtinTrap(in *Interp, args []string) int {
	if in.Traps == nil {
		in.Traps = map[string]string{}
	}
	if len(args) == 1 || (len(args) == 2 && args[1] == "-p") {
		names := make([]string, 0, len(in.Traps))
		for name := range in.Traps {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			in.printf("trap -- '%s' %s\n", in.Traps[name], name)
		}
		return 0
	}
	action := args[1]
	conds := args[2:]
	// `trap EXIT` (first operand is itself a condition and no action
	// follows) resets, per POSIX's unsigned-integer/condition-only form.
	if len(conds) == 0 {
		if name, ok := trapCondition(action); ok {
			delete(in.Traps, name)
			return 0
		}
		fmt.Fprintln(in.Stderr, "trap: usage: trap [action condition...]")
		return 2
	}
	reset := action == "-"
	for _, c := range conds {
		name, ok := trapCondition(c)
		if !ok {
			fmt.Fprintf(in.Stderr, "trap: %s: bad trap\n", c)
			return 1
		}
		if reset {
			delete(in.Traps, name)
		} else {
			in.Traps[name] = action
		}
	}
	return 0
}

// trapCondition canonicalizes a condition operand: 0 and EXIT are the
// same condition, and names are case-insensitive with an optional SIG
// prefix (bash compatibility).
func trapCondition(c string) (string, bool) {
	u := strings.ToUpper(c)
	u = strings.TrimPrefix(u, "SIG")
	if u == "0" || u == "EXIT" {
		return "EXIT", true
	}
	switch u {
	case "HUP", "INT", "QUIT", "TERM", "USR1", "USR2", "PIPE", "ALRM":
		return u, true
	}
	return "", false
}

// builtinGetopts implements POSIX `getopts optstring name [arg...]`,
// including clustered options (-abc), option-arguments (inline or as the
// next parameter), the ":" silent error mode, and the OPTIND/OPTARG
// protocol. It returns 0 while options remain (even for errors, which
// are reported through name="?" or ":") and non-zero when the scan ends.
func builtinGetopts(in *Interp, args []string) int {
	if len(args) < 3 {
		fmt.Fprintln(in.Stderr, "getopts: usage: getopts optstring name [arg...]")
		return 2
	}
	optstring, name := args[1], args[2]
	params := args[3:]
	if len(params) == 0 {
		params = in.Params
	}
	silent := strings.HasPrefix(optstring, ":")
	if silent {
		optstring = optstring[1:]
	}
	ind := 1
	if v := in.Vars["OPTIND"].Value; v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			ind = n
		}
	}
	if ind < 1 {
		ind = 1
	}
	// An OPTIND the script changed behind our back restarts the
	// within-cluster scan; otherwise resume at the saved position.
	pos := in.optPos
	if ind != in.optInd {
		pos = 0
	}
	finish := func(nextInd, nextPos, ret int) int {
		in.Setenv("OPTIND", strconv.Itoa(nextInd))
		in.optInd = nextInd
		in.optPos = nextPos
		return ret
	}
	endScan := func() int {
		in.Setenv(name, "?")
		in.unsetVar("OPTARG")
		return finish(ind, 0, 1)
	}
	if ind-1 >= len(params) {
		return endScan()
	}
	arg := params[ind-1]
	if pos == 0 {
		if arg == "--" {
			in.Setenv(name, "?")
			in.unsetVar("OPTARG")
			return finish(ind+1, 0, 1)
		}
		if len(arg) < 2 || arg[0] != '-' {
			return endScan()
		}
		pos = 1
	}
	c := arg[pos]
	pos++
	atEnd := pos >= len(arg)
	idx := strings.IndexByte(optstring, c)
	advance := func(ret int) int {
		if atEnd {
			return finish(ind+1, 0, ret)
		}
		return finish(ind, pos, ret)
	}
	if c == ':' || idx < 0 {
		in.Setenv(name, "?")
		if silent {
			in.Setenv("OPTARG", string(c))
		} else {
			in.unsetVar("OPTARG")
			fmt.Fprintf(in.Stderr, "%s: illegal option -- %c\n", in.Name0, c)
		}
		return advance(0)
	}
	if idx+1 >= len(optstring) || optstring[idx+1] != ':' {
		in.Setenv(name, string(c))
		in.unsetVar("OPTARG")
		return advance(0)
	}
	// The option takes an argument: the rest of this word, or the next
	// parameter.
	if !atEnd {
		in.Setenv(name, string(c))
		in.Setenv("OPTARG", arg[pos:])
		return finish(ind+1, 0, 0)
	}
	if ind < len(params) {
		in.Setenv(name, string(c))
		in.Setenv("OPTARG", params[ind])
		return finish(ind+2, 0, 0)
	}
	if silent {
		in.Setenv(name, ":")
		in.Setenv("OPTARG", string(c))
	} else {
		in.Setenv(name, "?")
		in.unsetVar("OPTARG")
		fmt.Fprintf(in.Stderr, "%s: option requires an argument -- %c\n", in.Name0, c)
	}
	return finish(ind+1, 0, 0)
}

// builtinUmask prints the creation mask as four octal digits, or installs
// a new one — in both the interpreter (so subshells inherit it) and the
// VFS (which applies it to every file and directory created afterwards).
// Symbolic modes are not supported.
func builtinUmask(in *Interp, args []string) int {
	if len(args) == 1 || (len(args) == 2 && args[1] == "-S") {
		in.printf("%04o\n", in.Umask)
		return 0
	}
	n, err := strconv.ParseUint(args[1], 8, 32)
	if err != nil || n > 0o777 {
		fmt.Fprintf(in.Stderr, "umask: %s: invalid mask\n", args[1])
		return 1
	}
	in.Umask = uint32(n)
	if in.FS != nil {
		in.FS.SetUmask(uint32(n))
	}
	return 0
}
