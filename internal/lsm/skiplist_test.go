package lsm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestSkiplistMatchesSortedModel puts random keys into a memtable across
// interleaved keyspaces — each key placed before, between or after the
// keys already in its keyspace, or just beside the keyspace's last put —
// and after every put checks the list against a sorted model: walked
// forward, and through seek at every key and between every two, with every
// upper level in order. Readers walk the list and seek in it while it grows
// (the check that matters under -race).
func TestSkiplistMatchesSortedModel(t *testing.T) {
	spaces := [][]byte{
		[]byte("r\x00\x00"), []byte("r\x00\x01"), []byte("r\x00\x7e"),
		[]byte("rr\x00\x00"), []byte("s\x00\x01"),
	}
	seeds, puts := 40, 300
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		checkSkiplistSeed(t, seed, spaces, puts)
	}
}

// checkSkiplistSeed runs one seed of TestSkiplistMatchesSortedModel.
func checkSkiplistSeed(t *testing.T, seed int64, spaces [][]byte, puts int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	s := newSkiplist()
	var model [][]byte                    // every key put, sorted
	vals := make([][]uint64, len(spaces)) // per keyspace, its values sorted
	last := make([]uint64, len(spaces))   // per keyspace, its last put
	key := func(sp int, v uint64) []byte {
		return binary.BigEndian.AppendUint64(slices.Clone(spaces[sp]), v)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer func() {
		close(stop)
		readers.Wait()
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rr := rand.New(rand.NewSource(seed*10 + int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev []byte
				var it memIter
				for it.seek(s, nil, nil); it.next(); {
					if prev != nil && bytes.Compare(prev, it.key()) >= 0 {
						t.Errorf("seed %d: reader saw %q after %q", seed, it.key(), prev)
						return
					}
					prev = it.key()
				}
				target := key(rr.Intn(len(spaces)), rr.Uint64()>>rr.Intn(64))
				if n := s.seek(target); n != nil && bytes.Compare(n.key, target) < 0 {
					t.Errorf("seed %d: reader's seek(%q) = %q", seed, target, n.key)
					return
				}
			}
		}(r)
	}

	for i := 0; i < puts; i++ {
		sp := rnd.Intn(len(spaces))
		vs := vals[sp]
		v := uint64(1<<40 + rnd.Intn(1<<12) - 1<<11) // anywhere near the start
		if len(vs) > 0 {
			switch rnd.Intn(6) {
			case 0: // after every key of the keyspace
				v = vs[len(vs)-1] + 1 + uint64(rnd.Intn(4))
			case 1: // before every key
				v = vs[0] - 1 - uint64(rnd.Intn(4))
			case 2: // just below the last put
				v = last[sp] - 1 - uint64(rnd.Intn(2))
			case 3: // just above the last put
				v = last[sp] + 1 + uint64(rnd.Intn(2))
			case 4: // between two neighbours
				j := rnd.Intn(len(vs))
				v = vs[j] + 1
				if j+1 < len(vs) && vs[j+1] > v {
					v += uint64(rnd.Int63n(int64(vs[j+1] - v)))
				}
			}
		}
		j, dup := slices.BinarySearch(vs, v)
		if dup {
			continue
		}
		vals[sp] = slices.Insert(vs, j, v)
		last[sp] = v
		k := key(sp, v)
		// put copies its key: scribbling over the caller's buffer
		// afterwards must not reach the list.
		buf := slices.Clone(k)
		s.put(buf, opSet)
		clear(buf)
		at, _ := slices.BinarySearchFunc(model, k, bytes.Compare)
		model = slices.Insert(model, at, k)

		var got [][]byte
		var it memIter
		for it.seek(s, nil, nil); it.next(); {
			got = append(got, it.key())
		}
		if !slices.EqualFunc(got, model, bytes.Equal) {
			t.Fatalf("seed %d, put %d (%q): list walks\n%q\nwant\n%q", seed, i, k, got, model)
		}
		// Every level above the bottom is sorted too: a level out of order
		// still finds every key, so only this check sees it.
		for lvl := 1; lvl < int(s.height.Load()); lvl++ {
			for n := s.head.next[lvl].Load(); n != nil; n = n.next[lvl].Load() {
				if nx := n.next[lvl].Load(); nx != nil && bytes.Compare(n.key, nx.key) >= 0 {
					t.Fatalf("seed %d, put %d: level %d has %q before %q", seed, i, lvl, n.key, nx.key)
				}
			}
		}
		for m, want := range model {
			if n := s.seek(want); n == nil || !bytes.Equal(n.key, want) {
				t.Fatalf("seed %d, put %d: seek(%q) found %v", seed, i, want, n)
			}
			// Just past a key, seek lands on the next one.
			past := append(slices.Clone(want), 0)
			n := s.seek(past)
			switch {
			case m+1 == len(model) && n != nil:
				t.Fatalf("seed %d, put %d: seek past the last key found %q", seed, i, n.key)
			case m+1 < len(model) && (n == nil || !bytes.Equal(n.key, model[m+1])):
				t.Fatalf("seed %d, put %d: seek(%q) found %v, want %q", seed, i, past, n, model[m+1])
			}
		}
	}
	if s.count != len(model) {
		t.Fatalf("seed %d: count %d, want %d", seed, s.count, len(model))
	}
}
