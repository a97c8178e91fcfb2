package interp

// PlanFallbackScripts are the scripts of planFallbackCases.
func PlanFallbackScripts() []string {
	var srcs []string
	for _, c := range planFallbackCases {
		srcs = append(srcs, c.src)
	}
	return srcs
}
