package registry

import (
	"context"
	"errors"
	"testing"
	"time"

	"modpeg"
)

// FuzzRegistryUpload drives arbitrary module source through the full
// upload pipeline — parse, compose, compile, smoke — against a registry
// that already serves a good version, and checks the registry's two
// hard promises:
//
//   - every rejection is a typed *registry.Error (the HTTP layer maps
//     kinds to statuses; an untyped error would surface as a 500), and
//   - the active version never corrupts: after any upload outcome the
//     active version still parses the probe input, because activation
//     is gated on the smoke corpus.
func FuzzRegistryUpload(f *testing.F) {
	f.Add(baseV1)
	f.Add(baseV2)
	f.Add(baseOnlyB)
	f.Add("module t.base;\n")
	f.Add("module wrong.name;\noption root = Top;\npublic Top = \"a\" ;\n")
	f.Add("module t.base;\nmodify t.missing;\nItem += <x> \"x\" ;\n")
	f.Add("not a module at all")
	f.Add("module t.base;\noption root = Top;\npublic Top = Loop ;\nLoop = Loop \"a\" ;\n")
	f.Add("module t.base;\noption root = Nope;\npublic Top = \"a\" ;\n")

	limits := modpeg.Limits{
		MaxInputBytes:    1 << 16,
		MaxMemoBytes:     1 << 20,
		MaxCallDepth:     1000,
		MaxParseDuration: 200 * time.Millisecond,
	}

	f.Fuzz(func(t *testing.T, src string) {
		r, err := New(Config{
			MaxSourceBytes: 1 << 16,
			DefaultLimits:  limits,
			SmokeTimeout:   200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		probes := []Probe{{Name: "canary", Input: "aa"}}
		if _, err := r.Upload(context.Background(), "fz", "t.base", Upload{Source: baseV1, Probes: probes}); err != nil {
			t.Fatalf("seeding the good version: %v", err)
		}

		_, err = r.Upload(context.Background(), "fz", "t.base", Upload{Source: src})
		if err != nil {
			var re *Error
			if !errors.As(err, &re) {
				t.Fatalf("upload returned an untyped error: %v", err)
			}
			if re.Kind == "" {
				t.Fatalf("typed error with empty kind: %v", err)
			}
		}

		// Whatever happened, the active version still parses the canary:
		// either the old version survived a failed upload, or the new one
		// passed the probe corpus on its way in.
		lease, err := r.Acquire("fz", "t.base", 0)
		if err != nil {
			t.Fatalf("acquire after upload: %v", err)
		}
		defer lease.Release()
		if _, _, err := lease.Parser.ParseRequest(context.Background(), "canary", "aa", modpeg.Request{Limits: lease.Limits}); err != nil {
			t.Fatalf("active version v%d no longer parses the canary: %v", lease.Version, err)
		}
	})
}
