package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bio"
)

// Inputs are generated from the workload seed alone: the same seed gives
// the same database, the same planted families and the same query list,
// so every run of a seed does identical work and must give identical
// answers.

// family is one homolog family planted in the database: mutated copies
// of one Table II query.
type family struct {
	root    *bio.Sequence
	members []int // database indexes of the planted copies, ascending
}

// query is one request of a run's fixed query list.
type query struct {
	id     string
	family int
	text   string  // ASCII residues, as sent on the wire
	res    []uint8 // encoded residues, as the layers take them
}

// inputSpec sizes a workload's inputs.
type inputSpec struct {
	numSeqs    int // database size, in mean-length sequences
	perFamily  int // planted copies per Table II query
	numQueries int // measured query list length
	numWarmup  int // untimed warm-up queries, disjoint from the list
}

// inputs is everything a workload hands to the program and checks
// against.
type inputs struct {
	db       *bio.Database
	families []family
	queries  []query
	warmup   []query
}

// Mutation rates. Planted members span a range of divergence so the
// indexed path's recall is below 1; queries sit close to their root.
const (
	memberMutMin = 0.20
	memberMutMax = 0.50
	queryMut     = 0.15
	indelShare   = 0.05 // share of mutations that are an insertion, and again a deletion
)

// makeInputs generates a workload's inputs from seed.
func makeInputs(seed int64, spec inputSpec) *inputs {
	rng := rand.New(rand.NewSource(seed))
	roots := bio.PaperQueries()
	samp := newSampler()
	var members []*bio.Sequence
	memberRes := 0
	for f, root := range roots {
		for j := 0; j < spec.perFamily; j++ {
			rate := memberMutMin + (memberMutMax-memberMutMin)*float64(j)/float64(max(spec.perFamily-1, 1))
			res := mutate(root.Residues, rate, rng, samp)
			members = append(members, bio.NewSequence(fmt.Sprintf("FAM%02d.%02d", f, j), "planted homolog of "+root.ID, bio.Decode(res)))
			memberRes += len(res)
		}
	}
	// Background sequences fill the database up to numSeqs × the mean
	// length, stopping at whichever sequence boundary lands closest, so
	// every seed scans the same number of residues within half a
	// sequence.
	dbSpec := bio.DefaultDBSpec(2 * spec.numSeqs)
	dbSpec.Seed = rng.Int63()
	base := bio.SyntheticDB(dbSpec).Seqs
	target, total, n := spec.numSeqs*dbSpec.MeanLen, memberRes, 0
	for n < len(base) && total+base[n].Len()/2 < target {
		total += base[n].Len()
		n++
	}
	seqs := make([]*bio.Sequence, n+len(members))
	slots := rng.Perm(len(seqs))[:len(members)]
	fams := make([]family, len(roots))
	for i, pos := range slots {
		seqs[pos] = members[i]
		f := i / spec.perFamily
		fams[f].root = roots[f]
		fams[f].members = append(fams[f].members, pos)
	}
	for f := range fams {
		sort.Ints(fams[f].members)
	}
	next := 0
	for i := range seqs {
		if seqs[i] == nil {
			seqs[i] = base[next]
			next++
		}
	}
	in := &inputs{db: bio.NewDatabase(seqs), families: fams}
	gen := func(prefix string, n int) []query {
		qs := make([]query, n)
		for i := range qs {
			// Families take turns, so every seed's list has the same
			// mix of query lengths.
			f := i % len(roots)
			res := mutate(roots[f].Residues, queryMut, rng, samp)
			qs[i] = query{id: fmt.Sprintf("%s%05d", prefix, i), family: f, text: bio.Decode(res), res: res}
		}
		return qs
	}
	in.queries = gen("q", spec.numQueries)
	in.warmup = gen("w", spec.numWarmup)
	return in
}

// mutate copies src with per-residue substitutions at rate, a share of
// them replaced by single-residue insertions and deletions. New residues
// are drawn from the SwissProt composition.
func mutate(src []uint8, rate float64, rng *rand.Rand, samp *sampler) []uint8 {
	out := make([]uint8, 0, len(src)+8)
	for _, c := range src {
		r := rng.Float64()
		switch {
		case r < rate*indelShare: // deletion
		case r < 2*rate*indelShare: // insertion before c
			out = append(out, samp.draw(rng), c)
		case r < rate:
			out = append(out, samp.draw(rng))
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, src...)
	}
	return out
}

// sampler draws residue codes from the SwissProt composition.
type sampler struct{ cum [bio.NumStandard]float64 }

func newSampler() *sampler {
	s := &sampler{}
	comp := bio.SwissProtComposition()
	acc := 0.0
	for i, f := range comp {
		acc += f
		s.cum[i] = acc
	}
	return s
}

func (s *sampler) draw(rng *rand.Rand) uint8 {
	r := rng.Float64() * s.cum[len(s.cum)-1]
	return uint8(sort.SearchFloat64s(s.cum[:], r))
}

// zipfLines draws n positions over a list of size m with Zipf popularity
// (position 0 hottest), deterministically from seed.
func zipfLines(seed int64, m, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(m-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// recall is the share of q's planted family members, up to k of them,
// that appear among hits (database indexes).
func (in *inputs) recall(q query, hitIdx []int, k int) float64 {
	members := in.families[q.family].members
	want := min(len(members), k)
	if want == 0 {
		return 1
	}
	found := 0
	for _, h := range hitIdx {
		if i := sort.SearchInts(members, h); i < len(members) && members[i] == h {
			found++
		}
	}
	return float64(min(found, want)) / float64(want)
}
