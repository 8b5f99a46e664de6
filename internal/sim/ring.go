package sim

// ring is a FIFO over a power-of-two circular buffer. It replaces
// re-slicing a queue from the front and appending at the back, which
// strands the consumed prefix and reallocates the backing array over
// and over; the ring reuses its slots and grows only when it is full, so
// a steady-state queue allocates nothing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

// at returns the i-th oldest element.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends v at the back.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop drops the oldest element.
func (r *ring[T]) pop() {
	var zero T
	r.buf[r.head] = zero // release what the slot references
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// reset empties the ring, keeping its buffer.
func (r *ring[T]) reset() {
	for r.n > 0 {
		r.pop()
	}
	r.head = 0
}

func (r *ring[T]) grow() {
	buf := make([]T, max(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}
