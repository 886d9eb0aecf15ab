package store

import (
	"fmt"
	"slices"

	csj "github.com/opencsj/csj"
)

// Candidates is a query's candidate set drawn from one snapshot and
// addressed by position: the snapshot's listing minus a few excluded
// ids, or an explicit list of its entries. Building one copies no
// entries, so a query over the whole store costs what it visits, not
// what is stored.
type Candidates struct {
	snap    *Snapshot
	entries []*Entry
	skip    []int // ascending positions in entries that are not candidates
}

// Candidates returns every entry of the snapshot but the excluded ids,
// in ascending id order. An id the snapshot does not hold excludes
// nothing.
func (sn *Snapshot) Candidates(exclude ...int64) Candidates {
	c := Candidates{snap: sn, entries: sn.list}
	for _, id := range exclude {
		if pos, ok := sn.search(id); ok && !slices.Contains(c.skip, pos) {
			c.skip = append(c.skip, pos)
		}
	}
	slices.Sort(c.skip)
	return c
}

// CandidatesOf returns entries of the snapshot, in the given order, as
// a candidate set. The slice is kept, not copied.
func (sn *Snapshot) CandidatesOf(entries []*Entry) Candidates {
	return Candidates{snap: sn, entries: entries}
}

// Len returns the candidate count.
func (c Candidates) Len() int { return len(c.entries) - len(c.skip) }

// Entry returns candidate i.
func (c Candidates) Entry(i int) *Entry {
	for _, p := range c.skip {
		if p > i {
			break
		}
		i++
	}
	return c.entries[i]
}

// Name returns candidate i's community name.
func (c Candidates) Name(i int) string { return c.Entry(i).Comm.Name }

// Summary returns candidate i's stored pruning summary. A store running
// with summaries disabled summarizes the community on the fly.
func (c Candidates) Summary(i int) (*csj.CommunitySummary, error) {
	e := c.Entry(i)
	if e.Summary != nil {
		return e.Summary, nil
	}
	sum, err := csj.SummarizeCommunity(e.Comm, 0)
	if err != nil {
		return nil, fmt.Errorf("summarizing community %d: %w", e.ID, err)
	}
	return sum, nil
}

// Source returns the candidates as a csj.CandidateSource whose views
// resolve through the store's prepared-view cache under spec.
func (c Candidates) Source(spec csj.MatchSpec) *CandidateSource {
	return &CandidateSource{Candidates: c, spec: spec}
}

// CandidateSource is a candidate set bound to the match spec its views
// resolve under. It implements csj.CandidateSource with no
// per-candidate allocation: summaries are the entries' own (unless
// summaries are disabled) and a view is one cache lookup.
type CandidateSource struct {
	Candidates
	spec csj.MatchSpec
}

// View returns candidate i's cached prepared view, building it on
// first use (see Snapshot.PreparedSpec).
func (s *CandidateSource) View(i int) (*csj.PreparedCommunity, error) {
	return s.snap.store.cache.get(s.Entry(i), s.spec)
}
