package coord

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"amstrack/internal/amsd"
	"amstrack/internal/engine"
)

// SplitNodes parses a comma-separated node-URL list, dropping empty
// entries and trailing slashes so "http://a:7600/," round-trips.
func SplitNodes(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimRight(strings.TrimSpace(n), "/")
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// Print renders the human-readable report joinctl emits.
func (r *JoinBody) Print(w io.Writer) {
	fmt.Fprintf(w, "join %s ⋈ %s across %d node(s)\n", r.F, r.G, r.Nodes)
	fmt.Fprintf(w, "  rows           : %s=%d  %s=%d\n", r.F, r.RowsF, r.G, r.RowsG)
	fmt.Fprintf(w, "  estimate       : %.6g\n", r.Estimate)
	fmt.Fprintf(w, "  estimator      : %s\n", r.Estimator)
	fmt.Fprintf(w, "  ±σ (Lemma 4.4) : %.6g  (k=%d)\n", r.Sigma, r.K)
	fmt.Fprintf(w, "  Fact 1.1 bound : %.6g\n", r.Fact11)
	fmt.Fprintf(w, "  SJ estimates   : %s=%.6g  %s=%.6g\n", r.F, r.SJF, r.G, r.SJG)
}

// Coordinate pulls both relations' bundles from every node, merges the
// partitions, and estimates the join with bounds. warnW receives skip
// warnings in non-strict mode.
func Coordinate(fx *Fetcher, nodes []string, f, g string, strict bool, warnW io.Writer) (*JoinBody, error) {
	if len(nodes) == 0 {
		return nil, errors.New("no nodes given")
	}
	bf, nf, err := MergeAcross(fx, nodes, f, strict, warnW)
	if err != nil {
		return nil, err
	}
	bg, ng, err := MergeAcross(fx, nodes, g, strict, warnW)
	if err != nil {
		return nil, err
	}
	body, err := amsd.JoinAnswer(f, g, bf, bg, &amsd.Evidence{Nodes: nf}, &amsd.Evidence{Nodes: ng})
	return (*JoinBody)(body), err
}

// Print renders the human-readable chain report joinctl emits.
func (r *ChainJoinBody) Print(w io.Writer) {
	fmt.Fprintf(w, "chain %s ⋈%s %s ⋈%s %s across %d node(s)\n", r.F, r.AttrA, r.G, r.AttrB, r.H, r.Nodes)
	fmt.Fprintf(w, "  rows           : %s=%d  %s=%d  %s=%d\n", r.F, r.RowsF, r.G, r.RowsG, r.H, r.RowsH)
	fmt.Fprintf(w, "  estimate       : %.6g\n", r.Estimate)
	fmt.Fprintf(w, "  ±σ (envelope)  : %.6g  (k=%d)\n", r.Sigma, r.K)
	fmt.Fprintf(w, "  C–S bound      : %.6g\n", r.Upper)
	fmt.Fprintf(w, "  SJ estimates   : %s=%.6g  %s=%.6g  %s=%.6g\n", r.F, r.SJF, r.G, r.SJG, r.H, r.SJH)
}

// CoordinateChain pulls all three relations' bundles from every node,
// merges each relation's partitions (chain sections merge linearly, like
// the pairwise synopses), and estimates the chain join with bounds.
func CoordinateChain(fx *Fetcher, nodes []string, f, attrA, g, attrB, h string, strict bool, warnW io.Writer) (*ChainJoinBody, error) {
	if len(nodes) == 0 {
		return nil, errors.New("no nodes given")
	}
	bf, nf, err := MergeAcross(fx, nodes, f, strict, warnW)
	if err != nil {
		return nil, err
	}
	bg, ng, err := MergeAcross(fx, nodes, g, strict, warnW)
	if err != nil {
		return nil, err
	}
	bh, nh, err := MergeAcross(fx, nodes, h, strict, warnW)
	if err != nil {
		return nil, err
	}
	body, err := amsd.ChainAnswer(ChainJoinRequest{F: f, AttrA: attrA, G: g, AttrB: attrB, H: h}, bf, bg, bh,
		&amsd.Evidence{Nodes: nf}, &amsd.Evidence{Nodes: ng}, &amsd.Evidence{Nodes: nh})
	return (*ChainJoinBody)(body), err
}

// MergeAcross fetches one relation's bundle from every node and merges
// the partitions IN NODE-LIST ORDER — the same order the daemon's cache
// merges in, which is what keeps cached answers bit-identical to fresh
// pulls. n reports how many nodes contributed.
func MergeAcross(fx *Fetcher, nodes []string, rel string, strict bool, warnW io.Writer) (*engine.RelationBundle, int, error) {
	var merged *engine.RelationBundle
	n := 0
	for _, node := range nodes {
		b, err := fx.FetchBundle(node, rel)
		if err != nil {
			if !strict && errors.Is(err, ErrNotFound) {
				if warnW != nil {
					fmt.Fprintf(warnW, "joinctl: node %s has no relation %q, skipping\n", node, rel)
				}
				continue
			}
			return nil, 0, fmt.Errorf("node %s, relation %q: %w", node, rel, err)
		}
		n++
		if merged == nil {
			merged = b
			continue
		}
		if err := merged.Merge(b); err != nil {
			return nil, 0, fmt.Errorf("node %s, relation %q: %w (check that every node runs equal -seed and shape flags)", node, rel, err)
		}
	}
	if merged == nil {
		return nil, 0, fmt.Errorf("relation %q: no node has it", rel)
	}
	return merged, n, nil
}
