package spec

// Grammars is the grammar table, for the tests of package spec_test.
var Grammars = grammars
