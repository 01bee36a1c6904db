package lsm

import (
	"bytes"
	"math/rand"
	"sync/atomic"
)

// skiplist is the sorted memtable structure: byte-string keys with one-byte
// op values, insert-only, single writer, safe for concurrent lock-free
// readers. Nodes are immutable after publication except their forward
// pointers, which are only ever swung to include new nodes — never unlinked —
// so a reader traversing with atomic loads always sees a consistent list and
// readers pinned to a sequence-number ceiling simply skip entries stamped
// after their snapshot.
//
// put copies each key into a byte slab and takes each node from a node
// slab, so an insert allocates nothing of its own; the tower stays inline in
// the node, so a read walk follows one pointer per step. The flush estimate
// counts a node as len(key)+1+48 bytes whatever the slabs hold, so they
// move no flush point.
const skipMaxHeight = 16

// Slab sizes double from the minimum, so a small memtable wastes little.
const (
	keySlabMin, keySlabMax   = 1 << 10, 64 << 10
	nodeSlabMin, nodeSlabMax = 8, 512
)

type skipNode struct {
	key  []byte
	op   byte
	next [skipMaxHeight]atomic.Pointer[skipNode]
}

type skiplist struct {
	head   *skipNode
	height atomic.Int32
	rnd    *rand.Rand
	count  int
	bytes  int
	keys   []byte     // key slab: put appends within its capacity
	nodes  []skipNode // node slab: put takes the next element
}

func newSkiplist() *skiplist {
	s := &skiplist{head: &skipNode{}, rnd: rand.New(rand.NewSource(0x5eed))}
	s.height.Store(1)
	return s
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < skipMaxHeight && s.rnd.Intn(4) == 0 {
		h++
	}
	return h
}

// newNode returns a node from the slab holding a copy of key.
func (s *skiplist) newNode(key []byte, op byte) *skipNode {
	if len(s.keys)+len(key) > cap(s.keys) {
		s.keys = make([]byte, 0, max(len(key), min(2*cap(s.keys), keySlabMax), keySlabMin))
	}
	n := len(s.keys)
	s.keys = append(s.keys, key...)
	if len(s.nodes) == cap(s.nodes) {
		s.nodes = make([]skipNode, 0, max(min(2*cap(s.nodes), nodeSlabMax), nodeSlabMin))
	}
	s.nodes = s.nodes[:len(s.nodes)+1]
	node := &s.nodes[len(s.nodes)-1]
	node.key, node.op = s.keys[n:len(s.keys):len(s.keys)], op
	return node
}

// put inserts a copy of key (full keys are unique: the sequence stamp
// differs on every write, so no update path is needed); the caller may
// reuse key afterwards. Writer-side only.
func (s *skiplist) put(key []byte, op byte) {
	var prev [skipMaxHeight]*skipNode
	h := int(s.height.Load())
	n := s.head
	for lvl := h - 1; lvl >= 0; lvl-- {
		for {
			nx := n.next[lvl].Load()
			if nx == nil || bytes.Compare(nx.key, key) >= 0 {
				break
			}
			n = nx
		}
		prev[lvl] = n
	}
	nh := s.randomHeight()
	if nh > h {
		for lvl := h; lvl < nh; lvl++ {
			prev[lvl] = s.head
		}
		s.height.Store(int32(nh))
	}
	node := s.newNode(key, op)
	// Publish bottom-up: once the node is reachable at level 0 every reader
	// sees a fully initialized node (key/op are written before any link).
	for lvl := 0; lvl < nh; lvl++ {
		node.next[lvl].Store(prev[lvl].next[lvl].Load())
		prev[lvl].next[lvl].Store(node)
	}
	s.count++
	s.bytes += len(key) + 1 + 48 // node overhead estimate for flush sizing
}

// seek returns the first node with key ≥ target (nil at end). It returns
// the node its walk compared, not a fresh load of the link, which a
// concurrent put may have swung to a node below target.
func (s *skiplist) seek(target []byte) *skipNode {
	n := s.head
	var nx *skipNode
	for lvl := int(s.height.Load()) - 1; lvl >= 0; lvl-- {
		for {
			nx = n.next[lvl].Load()
			if nx == nil || bytes.Compare(nx.key, target) >= 0 {
				break
			}
			n = nx
		}
	}
	return nx
}

// memIter iterates the skiplist ascending within [start, end). A zero
// memIter is ready for seek.
type memIter struct {
	node  *skipNode
	end   []byte
	first bool
}

// seek positions the iterator before the first key ≥ start of s.
func (it *memIter) seek(s *skiplist, start, end []byte) {
	*it = memIter{node: s.seek(start), end: end, first: true}
}

func (it *memIter) next() bool {
	if !it.first {
		if it.node == nil {
			return false
		}
		it.node = it.node.next[0].Load()
	}
	it.first = false
	if it.node == nil {
		return false
	}
	if it.end != nil && bytes.Compare(it.node.key, it.end) >= 0 {
		it.node = nil
		return false
	}
	return true
}

func (it *memIter) key() []byte { return it.node.key }
func (it *memIter) op() byte    { return it.node.op }
