package persona

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPersonaSourceInSync keeps the browsable generated persona under
// p4src/ identical to what Generate produces for the reference
// configuration. Regenerate with
//
//	HP4_UPDATE_P4=1 go test ./internal/core/persona -run TestPersonaSourceInSync
func TestPersonaSourceInSync(t *testing.T) {
	p, err := Generate(Reference)
	if err != nil {
		t.Fatal(err)
	}
	partial := Reference
	partial.FixedParser = true
	pp, err := Generate(partial)
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("..", "..", "..", "p4src")
	files := map[string]string{
		"hyper4_persona.p4":         p.Source(),
		"hyper4_base_commands.txt":  p.BaseCommands,
		"hyper4_persona_partial.p4": pp.Source(),
	}
	update := os.Getenv("HP4_UPDATE_P4") != ""
	for name, want := range files {
		path := filepath.Join(root, name)
		if update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (set HP4_UPDATE_P4=1 to regenerate)", path, err)
		}
		if string(got) != want {
			t.Errorf("%s out of sync (set HP4_UPDATE_P4=1 to regenerate)", path)
		}
	}
}
