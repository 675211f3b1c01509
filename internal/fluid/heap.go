package fluid

// resHeap is an indexed binary min-heap of resource ids ordered by
// (key, id): the order in which progressive filling picks bottlenecks.
// slot maps a resource id to its entry's index, -1 once removed; only
// the ids added since the last reset have a meaningful slot.
type resHeap struct {
	ent  []heapEntry
	slot []int32
}

type heapEntry struct {
	key float64
	id  int32
}

func (a heapEntry) less(b heapEntry) bool {
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

// reset empties the heap for a model with n resources.
func (h *resHeap) reset(n int) {
	h.ent = h.ent[:0]
	if len(h.slot) < n {
		h.slot = make([]int32, n)
	}
}

// add appends an entry without restoring the heap order; call init once
// every entry is in.
func (h *resHeap) add(key float64, id int) {
	h.slot[id] = int32(len(h.ent))
	h.ent = append(h.ent, heapEntry{key, int32(id)})
}

// absent records that id is not in the heap.
func (h *resHeap) absent(id int) { h.slot[id] = -1 }

func (h *resHeap) init() {
	for i := len(h.ent)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *resHeap) len() int { return len(h.ent) }

// min returns the smallest entry's key and id.
func (h *resHeap) min() (float64, int) { return h.ent[0].key, int(h.ent[0].id) }

// update changes the key of id, which must be in the heap.
func (h *resHeap) update(id int, key float64) {
	i := int(h.slot[id])
	h.ent[i].key = key
	if !h.up(i) {
		h.down(i)
	}
}

// remove takes id out of the heap; removing an absent id is a no-op.
func (h *resHeap) remove(id int) {
	i := int(h.slot[id])
	if i < 0 {
		return
	}
	h.slot[id] = -1
	last := len(h.ent) - 1
	if i != last {
		h.ent[i] = h.ent[last]
		h.slot[h.ent[i].id] = int32(i)
	}
	h.ent = h.ent[:last]
	if i != last && !h.up(i) {
		h.down(i)
	}
}

func (h *resHeap) swap(i, j int) {
	h.ent[i], h.ent[j] = h.ent[j], h.ent[i]
	h.slot[h.ent[i].id] = int32(i)
	h.slot[h.ent[j].id] = int32(j)
}

// up sifts entry i towards the root and reports whether it moved.
func (h *resHeap) up(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !h.ent[i].less(h.ent[p]) {
			break
		}
		h.swap(i, p)
		i = p
		moved = true
	}
	return moved
}

func (h *resHeap) down(i int) {
	n := len(h.ent)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.ent[r].less(h.ent[c]) {
			c = r
		}
		if !h.ent[c].less(h.ent[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}
