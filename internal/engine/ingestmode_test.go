package engine

import (
	"strings"
	"testing"
)

// TestIngestDefaultResolution pins the IngestMode compatibility
// contract: the engine has one write path, which the zero value and
// IngestAbsorber both select; every other value — including 1, the
// number of a retired synchronous path — is rejected.
func TestIngestDefaultResolution(t *testing.T) {
	cases := []struct {
		name    string
		mode    IngestMode
		wantErr bool
	}{
		{name: "zero value resolves to absorber"},
		{name: "explicit absorber", mode: IngestAbsorber},
		{name: "retired value is an error", mode: 1, wantErr: true},
		{name: "unknown value is an error", mode: 7, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(Options{SignatureWords: 16, Seed: 1, IngestMode: tc.mode})
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "unknown ingest mode") {
					t.Fatalf("err = %v, want an unknown ingest mode error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if got := eng.Options().IngestMode; got != IngestAbsorber {
				t.Fatalf("resolved ingest mode = %v, want %v", got, IngestAbsorber)
			}
		})
	}
}
