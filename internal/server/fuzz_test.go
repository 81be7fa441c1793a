package server

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeRequest drives the request decoders (the design route's
// decodeDesign, the strict JSON decoder for every other DTO) and the
// request validators: whatever arrives on the socket,
// decode+validate must classify it (nil or error) without panicking —
// the server's only defense layer in front of the engine.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		// Valid payloads for each DTO.
		`{"agents":[{"id":"h1","class":"honest","psi":{"r2":-0.25,"r1":2,"r0":0},"beta":1,"weight":1}],"m":10,"delta":0.2,"mu":1}`,
		`{"agents":[{"id":"c1","class":"community","psi":{"r2":-0.3,"r1":1},"beta":1,"omega":0.3,"size":3,"weight":0.5}],"m":10,"delta":0.2,"policy":"exclude","threshold":0.5}`,
		`{"include_outcomes":true,"include_contracts":true}`,
		`{"agent_id":"h1"}`,
		`{"agent":{"id":"x","class":"malicious","psi":{"r2":-0.25,"r1":2},"beta":1,"omega":0.5,"weight":1.5}}`,
		`{"weights":{"h1":2},"beta":{"m1":1.5},"psi":{"c1":{"r2":-0.3,"r1":1,"r0":0}}}`,
		// Hostile shapes: truncation, huge numbers, wrong types, unknown
		// fields, duplicate keys, trailing data, deep nesting.
		`{"agents":[{"id":"h1","class":"hon`,
		`{"mu":1e999,"delta":-1e999,"seed":9223372036854775807}`,
		`{"agents":"not-a-list"}`,
		`{"bogus_field":1}`,
		`{"m":1,"m":2}`,
		`{} {"second":"value"}`,
		`{"weights":{"":0}}`,
		strings.Repeat(`{"agent":`, 100) + `null` + strings.Repeat(`}`, 100),
		``,
		`null`,
		`[]`,
		`"just a string"`,
	}
	for _, s := range seeds {
		for kind := byte(0); kind < 5; kind++ {
			f.Add(kind, []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		r := bytes.NewReader(data)
		switch kind % 5 {
		case 0:
			var v CreateSessionRequest
			if decodeJSON(r, &v) == nil {
				_ = v.Validate()
			}
		case 1:
			var v AdvanceRoundRequest
			_ = decodeJSON(r, &v)
		case 2:
			var v DesignQueryRequest
			if decodeDesign(data, &v) == nil {
				_ = v.Validate()
			}
		case 3:
			var v DriftRequest
			if decodeJSON(r, &v) == nil {
				_ = v.Validate()
			}
		case 4:
			// The agent converter behind both create and design paths.
			var v AgentSpec
			if decodeJSON(r, &v) == nil {
				_, _ = v.Agent()
			}
		}
	})
}
