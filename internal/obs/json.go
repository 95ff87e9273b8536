package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON is the shared encoder for every observability document the
// repo emits (Stats snapshots, bench stats reports, results twins): two-
// space indentation, trailing newline, no HTML escaping. One encoder
// means one formatting convention, so generated files diff cleanly.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// MarshalJSONBytes renders v with the WriteJSON convention.
func MarshalJSONBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RoundTrip verifies that data strictly decodes into out (a pointer to
// the document's Go type, rejecting unknown fields) and that re-encoding
// the decoded value reproduces data byte for byte — the schema check
// behind every document the tools write. A mismatch means the producer and the
// declared schema have drifted apart.
func RoundTrip(data []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("obs: strict decode failed: %w", err)
	}
	// A second document in the stream means trailing garbage.
	if dec.More() {
		return fmt.Errorf("obs: trailing data after JSON document")
	}
	re, err := MarshalJSONBytes(out)
	if err != nil {
		return fmt.Errorf("obs: re-encode failed: %w", err)
	}
	if !bytes.Equal(bytes.TrimSpace(re), bytes.TrimSpace(data)) {
		return fmt.Errorf("obs: document does not round-trip through the schema (field order or formatting drift)")
	}
	return nil
}

// ValidateStatsJSON checks that data is a schema-conforming Stats
// document: it round-trips strictly and carries the expected schema tag.
func ValidateStatsJSON(data []byte) error {
	var s Stats
	if err := RoundTrip(data, &s); err != nil {
		return err
	}
	if s.Schema != StatsSchema {
		return fmt.Errorf("obs: schema %q, want %q", s.Schema, StatsSchema)
	}
	return nil
}
