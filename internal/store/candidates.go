package store

import (
	"fmt"

	csj "github.com/opencsj/csj"
)

// Candidates is a query's candidate set drawn from one snapshot and
// addressed by position: the snapshot's listing minus one excluded id,
// or an explicit list of its entries. Building one copies no entries,
// so a query over the whole store costs what it visits, not what is
// stored.
type Candidates struct {
	snap *Snapshot
	// head then tail are the candidates in order: the listing split
	// around the excluded entry, or the whole list in head.
	head, tail []*Entry
}

// Candidates returns every entry of the snapshot but the one with id
// exclude, in ascending id order. An id the snapshot does not hold
// excludes nothing.
func (sn *Snapshot) Candidates(exclude int64) Candidates {
	pos, ok := sn.search(exclude)
	if !ok {
		return Candidates{snap: sn, head: sn.list}
	}
	return Candidates{snap: sn, head: sn.list[:pos], tail: sn.list[pos+1:]}
}

// CandidatesOf returns entries of the snapshot, in the given order, as
// a candidate set. The slice is kept, not copied.
func (sn *Snapshot) CandidatesOf(entries []*Entry) Candidates {
	return Candidates{snap: sn, head: entries}
}

// Len returns the candidate count.
func (c Candidates) Len() int { return len(c.head) + len(c.tail) }

// Entry returns candidate i.
func (c Candidates) Entry(i int) *Entry {
	if i < len(c.head) {
		return c.head[i]
	}
	return c.tail[i-len(c.head)]
}

// Name returns candidate i's community name.
func (c Candidates) Name(i int) string { return c.Entry(i).Comm.Name }

// Summary returns candidate i's stored pruning summary. Only an entry
// whose community cannot be summarized has none.
func (c Candidates) Summary(i int) (*csj.CommunitySummary, error) {
	e := c.Entry(i)
	if e.Summary == nil {
		return nil, fmt.Errorf("community %d has no pruning summary", e.ID)
	}
	return e.Summary, nil
}

// Source returns the candidates as a csj.CandidateSource whose views
// resolve through the store's prepared-view cache under spec.
func (c Candidates) Source(spec csj.MatchSpec) *CandidateSource {
	return &CandidateSource{Candidates: c, spec: spec}
}

// CandidateSource is a candidate set bound to the match spec its views
// resolve under. It implements csj.CandidateSource with no
// per-candidate allocation: summaries are the entries' own and a view
// is one cache lookup.
type CandidateSource struct {
	Candidates
	spec csj.MatchSpec
}

// View returns candidate i's cached prepared view, building it on
// first use (see Snapshot.PreparedSpec).
func (s *CandidateSource) View(i int) (*csj.PreparedCommunity, error) {
	return s.snap.store.cache.get(s.Entry(i), s.spec)
}
