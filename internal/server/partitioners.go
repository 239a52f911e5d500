package server

import (
	"fmt"
	"strconv"
	"strings"

	"samr/internal/partition"
	"samr/internal/sfc"
)

// ParsePartitioner turns a wire spec into a fresh partitioner instance.
// The grammar mirrors the Name() strings the partitioners themselves
// print, so any name that appears in experiment output round-trips as a
// request spec. Family aliases give the defaults:
//
//	domain                      -> domain-hilbert-u2
//	domain-<curve>[-u<N>]       -> DomainSFC
//	patch | patch-lpt           -> PatchBased
//	hybrid | nature+fable       -> nature+fable-hilbert-u2-q4-frac
//	nature+fable-<curve>-u<N>-q<Q>-<frac|whole>
//	postmap(<inner spec>)       -> PostMapped wrapper
//
// Specs are case-insensitive. Every call returns a new instance, so
// stateful wrappers (postmap) never leak state across requests.
func ParsePartitioner(spec string) (partition.Partitioner, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	switch {
	case s == "":
		return nil, fmt.Errorf("empty partitioner spec")
	case strings.HasPrefix(s, "postmap(") && strings.HasSuffix(s, ")"):
		inner, err := ParsePartitioner(s[len("postmap(") : len(s)-1])
		if err != nil {
			return nil, fmt.Errorf("postmap: %w", err)
		}
		return partition.NewPostMapped(inner), nil
	case s == "domain":
		return partition.NewDomainSFC(), nil
	case strings.HasPrefix(s, "domain-"):
		return parseDomain(s[len("domain-"):])
	case s == "patch" || s == "patch-lpt":
		return partition.NewPatchBased(), nil
	case s == "hybrid" || s == "nature+fable":
		return partition.NewNatureFable(), nil
	case strings.HasPrefix(s, "nature+fable-"):
		return parseNatureFable(s[len("nature+fable-"):])
	}
	return nil, fmt.Errorf("unknown partitioner %q (families: domain, patch-lpt, nature+fable, postmap(...))", spec)
}

func parseCurve(name string) (sfc.Curve, error) {
	switch name {
	case "morton":
		return sfc.Morton, nil
	case "hilbert":
		return sfc.Hilbert, nil
	case "rowmajor":
		return sfc.RowMajor, nil
	}
	return 0, fmt.Errorf("unknown curve %q (have morton, hilbert, rowmajor)", name)
}

// parseDomain handles "<curve>[-u<N>]".
func parseDomain(rest string) (partition.Partitioner, error) {
	d := partition.NewDomainSFC()
	parts := strings.Split(rest, "-")
	if len(parts) > 2 {
		return nil, fmt.Errorf("bad domain spec %q, want domain-<curve>[-u<N>]", "domain-"+rest)
	}
	var err error
	if d.Curve, err = parseCurve(parts[0]); err != nil {
		return nil, err
	}
	if len(parts) == 2 {
		if d.UnitSize, err = parseParam(parts[1], 'u'); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// parseNatureFable handles "<curve>-u<N>-q<Q>-<frac|whole>", with every
// component after the curve optional (defaults from NewNatureFable).
func parseNatureFable(rest string) (partition.Partitioner, error) {
	nf := partition.NewNatureFable()
	var err error
	for i, p := range strings.Split(rest, "-") {
		switch {
		case i == 0:
			if nf.Curve, err = parseCurve(p); err != nil {
				return nil, err
			}
		case p == "frac":
			nf.FractionalBlocking = true
		case p == "whole":
			nf.FractionalBlocking = false
		case strings.HasPrefix(p, "u"):
			if nf.AtomicUnit, err = parseParam(p, 'u'); err != nil {
				return nil, err
			}
		case strings.HasPrefix(p, "q"):
			if nf.Groups, err = parseParam(p, 'q'); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("bad nature+fable component %q", p)
		}
	}
	return nf, nil
}

// parseParam parses a "<letter><positive int>" spec component.
func parseParam(p string, letter byte) (int, error) {
	if len(p) < 2 || p[0] != letter {
		return 0, fmt.Errorf("bad parameter %q, want %c<N>", p, letter)
	}
	n, err := strconv.Atoi(p[1:])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad parameter %q: want a positive integer after %c", p, letter)
	}
	return n, nil
}
