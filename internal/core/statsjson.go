package core

import (
	"encoding/json"
	"io"
)

// WriteStatsJSON encodes the session statistics as one indented JSON
// object, the wire shape of `jash -stats -stats-format json`: the json tags
// of Stats, Decision and exec.NodeMetrics — snake_case, durations in
// microseconds, matching the trace exporter's conventions so one set of
// downstream tooling reads both. It takes the session lock, so it is safe
// to call while list regions are still completing.
func (s *Shell) WriteStatsJSON(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.Stats
	if out.Decisions == nil {
		out.Decisions = []Decision{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// MarshalJSON adds the one field the tags cannot express: the planning
// wall time in microseconds.
func (d Decision) MarshalJSON() ([]byte, error) {
	type tagged Decision // the tags without this method
	return json.Marshal(struct {
		tagged
		PlanningWallUS int64 `json:"planning_wall_us"`
	}{tagged(d), d.PlanningWall.Microseconds()})
}
