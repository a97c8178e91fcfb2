package syntax

// RoundTripCases and ParseSeeds are the printer's round-trip table and
// FuzzParse's seeds, for the tests outside the package that check the
// other layers against the words they parse to.
var RoundTripCases, ParseSeeds = roundTripCases, parseSeeds
