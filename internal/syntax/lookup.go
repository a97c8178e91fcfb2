package syntax

// Class is what a command name is before the function table is asked.
// POSIX 2.9.1 looks a name up in this order: a special built-in, then a
// function, then a regular built-in, then a utility. A function may not
// take a special built-in's name (the parser refuses the definition), so
// a function shadows a name of either other class.
type Class uint8

const (
	Utility        Class = iota // no built-in has the name
	SpecialBuiltin              // no function shadows it
	RegularBuiltin              // a function of its name shadows it
)

// classes is the one table of built-in names: the special built-ins as
// dash has them, and the regular built-ins the interpreter implements.
var classes = map[string]Class{
	":": SpecialBuiltin, ".": SpecialBuiltin, "break": SpecialBuiltin,
	"continue": SpecialBuiltin, "eval": SpecialBuiltin, "exec": SpecialBuiltin,
	"exit": SpecialBuiltin, "export": SpecialBuiltin, "readonly": SpecialBuiltin,
	"return": SpecialBuiltin, "set": SpecialBuiltin, "shift": SpecialBuiltin,
	"times": SpecialBuiltin, "trap": SpecialBuiltin, "unset": SpecialBuiltin,
	"local": SpecialBuiltin,

	"cd": RegularBuiltin, "pwd": RegularBuiltin, "read": RegularBuiltin,
	"type": RegularBuiltin, "wait": RegularBuiltin, "umask": RegularBuiltin,
	"getopts": RegularBuiltin,
}

// ClassOf is the class of a command name.
func ClassOf(name string) Class { return classes[name] }
