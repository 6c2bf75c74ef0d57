// Command joinest builds k-TW join signatures for two relations given as
// value files (one joining-attribute value per line, as produced by
// datagen) and estimates their join size, comparing against the exact
// value and the paper's error bound.
//
// Usage:
//
//	datagen -dataset zipf1.0 -seed 1 -out f.txt
//	datagen -dataset zipf1.0 -seed 2 -out g.txt
//	joinest -k 256 f.txt g.txt
//
// With -oplog the inputs are binary operation logs (the format
// internal/oplog writes and the amsd engine appends, any record version):
// each log is replayed through a synopsis-engine relation, one record at
// a time — inserts AND deletes, a tuple record by its primary attribute —
// as crash recovery would, and the estimate is compared against the exact
// join size of the replayed multisets.
//
//	joinest -oplog -k 256 f.oplog g.oplog
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"amstrack"
	"amstrack/internal/oplog"
)

func main() {
	var (
		k       = flag.Int("k", 256, "signature size in memory words per relation")
		seed    = flag.Uint64("seed", 42, "signature family seed")
		logMode = flag.Bool("oplog", false, "inputs are binary oplogs, replayed through the synopsis engine")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: joinest [-k K] [-seed S] [-oplog] F G")
		os.Exit(2)
	}
	var err error
	if *logMode {
		err = runOplog(*k, *seed, flag.Arg(0), flag.Arg(1))
	} else {
		err = run(*k, *seed, flag.Arg(0), flag.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinest:", err)
		os.Exit(1)
	}
}

// runOplog replays two operation logs through an in-memory synopsis
// engine and reports the engine's planner-facing answer next to the
// exact join size of the replayed multisets.
func runOplog(k int, seed uint64, fpath, gpath string) error {
	eng, err := amstrack.NewEngine(amstrack.EngineOptions{SignatureWords: k, Seed: seed})
	if err != nil {
		return err
	}
	exF, exG := amstrack.NewExact(), amstrack.NewExact()
	for _, in := range []struct {
		name string
		path string
		ex   *amstrack.Exact
	}{{"F", fpath, exF}, {"G", gpath, exG}} {
		rel, err := eng.Define(in.name)
		if err != nil {
			return err
		}
		applied, err := replayLog(in.path, rel, in.ex)
		if err != nil {
			return fmt.Errorf("%s: %w", in.path, err)
		}
		fmt.Printf("%s: replayed %d ops from %s (n = %d)\n", in.name, applied, in.path, rel.Len())
	}
	je, err := eng.EstimateJoin("F", "G")
	if err != nil {
		return err
	}
	truth := float64(exF.JoinSize(exG))
	fmt.Printf("estimated join size : %.6g\n", je.Estimate)
	fmt.Printf("exact join size     : %.6g\n", truth)
	if truth != 0 {
		fmt.Printf("relative error      : %+.2f%%\n", 100*(je.Estimate-truth)/truth)
	}
	fmt.Printf("1σ error bound      : %.6g (Lemma 4.4, from engine SJ estimates)\n", je.Sigma)
	fmt.Printf("Fact 1.1 upper bound: %.6g\n", je.Fact11)
	return nil
}

// replayLog streams one oplog into an engine relation and the exact
// reference, one record at a time: each record's rows go to the relation
// as one batch (IngestRun), a tuple record's by their primary attribute
// (column 0). A torn tail is reported and skipped — the same truncation
// semantics engine recovery applies — while mid-log corruption fails.
func replayLog(path string, rel *amstrack.Relation, ex *amstrack.Exact) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	lr := oplog.NewReader(f)
	applied := int64(0)
	var col []uint64
	for {
		rn, err := lr.NextRun()
		switch {
		case err == io.EOF:
			return applied, nil
		case errors.Is(err, io.ErrUnexpectedEOF):
			fmt.Fprintf(os.Stderr, "joinest: %s: torn tail after %d rows (its partial record ignored)\n", path, lr.Count())
			return applied, nil
		case err != nil:
			return applied, err
		}
		col = col[:0]
		for j := 0; j < len(rn.Vals); j += rn.Arity {
			col = append(col, rn.Vals[j])
		}
		if err := rel.IngestRun(rn.Del, col); err != nil {
			return applied, err
		}
		for i, v := range col {
			if !rn.Del {
				ex.Insert(v)
			} else if err := ex.Delete(v); err != nil {
				return applied, fmt.Errorf("row %d: %w", lr.Count()-int64(len(col)-i), err)
			}
		}
		applied += int64(len(col))
	}
}

func run(k int, seed uint64, fpath, gpath string) error {
	fam, err := amstrack.NewSignatureFamily(k, seed)
	if err != nil {
		return err
	}
	sf, sg := fam.NewSignature(), fam.NewSignature()
	exF, exG := amstrack.NewExact(), amstrack.NewExact()

	if err := load(fpath, sf, exF); err != nil {
		return err
	}
	if err := load(gpath, sg, exG); err != nil {
		return err
	}

	est, err := amstrack.EstimateJoin(sf, sg)
	if err != nil {
		return err
	}
	truth := float64(exF.JoinSize(exG))
	bound := amstrack.JoinErrorBound(exF.Estimate(), exG.Estimate(), k)
	fact11 := amstrack.JoinUpperBound(exF.Estimate(), exG.Estimate())

	fmt.Printf("|F| = %d, |G| = %d, signature size k = %d words each\n", sf.Len(), sg.Len(), k)
	fmt.Printf("estimated join size : %.6g\n", est)
	fmt.Printf("exact join size     : %.6g\n", truth)
	if truth != 0 {
		fmt.Printf("relative error      : %+.2f%%\n", 100*(est-truth)/truth)
	}
	fmt.Printf("1σ error bound      : %.6g (Lemma 4.4: sqrt(2·SJ(F)·SJ(G)/k))\n", bound)
	fmt.Printf("Fact 1.1 upper bound: %.6g\n", fact11)
	return nil
}

type inserter interface{ Insert(v uint64) }

func load(path string, sinks ...inserter) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for _, s := range sinks {
			s.Insert(v)
		}
	}
	return sc.Err()
}
