package server

import "testing"

func TestParsePartitionerRoundTripsNames(t *testing.T) {
	// Every canonical Name() a parse produces must parse back to the
	// same canonical name, so experiment output is always a valid spec.
	specs := []string{
		"domain", "domain-morton", "domain-hilbert-u4", "domain-rowmajor-u1",
		"patch", "patch-lpt",
		"hybrid", "nature+fable", "nature+fable-morton-u4-q2-whole",
		"nature+fable-hilbert-u1-q4-frac",
		"postmap(domain-hilbert-u2)", "postmap(nature+fable)",
		"Domain", "PATCH-LPT", "Postmap(Domain-Morton)",
	}
	for _, spec := range specs {
		p, err := ParsePartitioner(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		name := p.Name()
		p2, err := ParsePartitioner(name)
		if err != nil {
			t.Errorf("canonical %q (from %q) does not re-parse: %v", name, spec, err)
			continue
		}
		if p2.Name() != name {
			t.Errorf("%q: re-parse changed name %q -> %q", spec, name, p2.Name())
		}
	}
}

func TestParsePartitionerRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"", "quantum", "domain-klein", "domain-hilbert-u0", "domain-hilbert-uX",
		"nature+fable-hilbert-z9", "postmap(", "postmap()", "postmap(quantum)",
		"domain-hilbert-u2-extra",
	} {
		if p, err := ParsePartitioner(spec); err == nil {
			t.Errorf("%q parsed to %q, want error", spec, p.Name())
		}
	}
}

func TestParsePartitionerFreshInstances(t *testing.T) {
	a, _ := ParsePartitioner("postmap(domain)")
	b, _ := ParsePartitioner("postmap(domain)")
	if a == b {
		t.Error("ParsePartitioner returned one instance for two calls")
	}
}
