package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// This file is the dataflow tier's generic engine: a forward worklist solver
// over the CFG of cfg.go. Analyzers model their invariant as a small
// "may"-analysis — per tracked value a bitset of states the value may be in
// on some path — and provide one transfer function. The solver iterates to a
// fixed point (joins are pointwise bitset unions, so in-states only grow),
// then the analyzer replays each block from its solved in-state to check and
// report, asking the solver for a path witness (the statement sequence from
// entry that reaches the violating block) to attach to the diagnostic.

// Bits is a may-state bitset for one tracked value. Analyzers define their
// own bit meanings (bufown and spanbalance: owned/released/transferred;
// lockorder: locked).
type Bits uint8

// Fact is the abstract state of one tracked value: the states it may be in,
// plus the node that originated tracking (for reporting).
type Fact struct {
	Bits   Bits
	Origin ast.Node
}

// State maps tracked-value keys to facts. Keys are canonical access paths
// ("buf", "m.Payload", "j.mu") produced by PathKey; a missing key means the
// value is untracked (the analyzer's bottom).
type State map[string]Fact

// clone copies a state.
func (s State) clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// join unions other into s pointwise and reports whether s changed.
func (s State) join(other State) bool {
	changed := false
	for k, v := range other {
		cur, ok := s[k]
		if !ok {
			s[k] = v
			changed = true
			continue
		}
		merged := cur
		merged.Bits |= v.Bits
		if merged.Origin == nil {
			merged.Origin = v.Origin
		}
		if merged != cur {
			s[k] = merged
			changed = true
		}
	}
	return changed
}

// Flow runs a forward may-analysis over g from the entry in-state entry
// (nil for none). transfer mutates st in place for one node; it is called
// for every node of every block, in order. The returned map holds the
// solved in-state of every block.
//
// The iteration count is capped (transfer functions with kills are not
// formally monotone); hitting the cap leaves a sound over-approximation
// because in-states only ever grow.
func Flow(g *CFG, entry State, transfer func(n ast.Node, st State)) map[*Block]State {
	// Every block is seeded onto the worklist: a block must be processed at
	// least once even if its in-state never grows past empty, or facts born
	// inside it would never reach its successors.
	in := make(map[*Block]State, len(g.Blocks))
	work := make([]*Block, 0, len(g.Blocks))
	queued := make(map[*Block]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = State{}
		work = append(work, b)
		queued[b] = true
	}
	in[g.Entry] = entry.clone()
	steps := 0
	limit := 64 * (len(g.Blocks) + 1)
	for len(work) > 0 && steps < limit {
		steps++
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := in[b].clone()
		for _, n := range b.Nodes {
			transfer(n, out)
		}
		for _, s := range b.Succs {
			if in[s].join(out) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// ExitState replays the solved analysis to the exit block's in-state and
// then applies the function's deferred statements through transfer, giving
// the state every path ends in (defers run on all exits).
func ExitState(g *CFG, in map[*Block]State, transfer func(n ast.Node, st State)) State {
	st := in[g.Exit].clone()
	for _, d := range g.Defers {
		transfer(d.Call, st)
	}
	return st
}

// Witness is one step of the path from function entry to a violation.
type Witness struct {
	Pos  token.Position
	Text string
}

// PathWitness returns the shortest entry→to block path's node sequence,
// rendered for humans: the statement sequence that reaches the violation.
// The final node index bounds how much of the destination block is included
// (-1 = all of it).
func (c *CFG) PathWitness(fset *token.FileSet, to *Block, lastNode ast.Node) []Witness {
	// BFS over predecessors from the destination back to the entry.
	prev := map[*Block]*Block{to: nil}
	queue := []*Block{to}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if b == c.Entry {
			break
		}
		preds := append([]*Block(nil), b.Preds...)
		sort.Slice(preds, func(i, j int) bool { return preds[i].Index < preds[j].Index })
		for _, p := range preds {
			if _, seen := prev[p]; !seen {
				prev[p] = b
				queue = append(queue, p)
			}
		}
	}
	if _, ok := prev[c.Entry]; !ok && to != c.Entry {
		return nil
	}
	var path []*Block
	for b := c.Entry; b != nil; b = prev[b] {
		path = append(path, b)
		if b == to {
			break
		}
	}
	var out []Witness
	for _, b := range path {
		for _, n := range b.Nodes {
			out = append(out, Witness{Pos: fset.Position(n.Pos()), Text: nodeText(fset, n)})
			if b == to && n == lastNode {
				return out
			}
		}
	}
	return out
}
