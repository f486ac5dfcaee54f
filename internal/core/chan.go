package core

import (
	"sync"

	"flick/internal/value"
)

// Chan is a FIFO of values connecting two tasks (§3.2: "channels move data
// between tasks"). Multiple producers are permitted (fan-in); the single
// consumer is the task registered with SetConsumer, which is scheduled
// whenever data or EOF arrives.
//
// Push never blocks: flow control is cooperative. Producers consult Len
// against HighWater and stop pulling their own inputs when a downstream
// channel is saturated, mirroring the paper's bounded-work-per-timeslice
// design without risking worker-thread deadlock.
type Chan struct {
	mu     sync.Mutex
	buf    []value.Value
	head   int
	size   int
	closed bool

	consumer *Task
	sched    scheduler
}

// HighWater is the soft capacity producers respect.
const HighWater = 1024

// scheduler is the hook channels use to wake their consumer.
type scheduler interface {
	Schedule(t *Task)
}

// NewChan creates a channel with the given initial capacity.
func NewChan(capacity int) *Chan {
	if capacity < 8 {
		capacity = 8
	}
	return &Chan{buf: make([]value.Value, capacity)}
}

// SetConsumer registers the task to schedule on arrival.
func (c *Chan) SetConsumer(t *Task, s scheduler) {
	c.mu.Lock()
	c.consumer = t
	c.sched = s
	c.mu.Unlock()
}

// Push appends v and wakes the consumer. Pushing to a closed channel drops
// the value (the consumer is gone).
//
// Refcounting: the channel retains v's backing region while it is queued;
// Pop transfers that reference to the consumer, which must Release after
// processing. Producers keep (and separately release) their own reference,
// so fan-out — pushing one value to several channels — is safe.
func (c *Chan) Push(v value.Value) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	v.Retain()
	if c.size == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.size)%len(c.buf)] = v
	c.size++
	consumer, sched := c.consumer, c.sched
	c.mu.Unlock()
	if consumer != nil && sched != nil {
		sched.Schedule(consumer)
	}
}

func (c *Chan) grow() {
	nb := make([]value.Value, len(c.buf)*2)
	for i := 0; i < c.size; i++ {
		nb[i] = c.buf[(c.head+i)%len(c.buf)]
	}
	c.buf = nb
	c.head = 0
}

// Pop removes the next value. ok reports whether a value was returned;
// closed reports that the channel is closed AND drained.
func (c *Chan) Pop() (v value.Value, ok bool, closed bool) {
	c.mu.Lock()
	if c.size > 0 {
		v = c.buf[c.head]
		c.buf[c.head] = value.Value{}
		c.head = (c.head + 1) % len(c.buf)
		c.size--
		c.mu.Unlock()
		return v, true, false
	}
	cl := c.closed
	c.mu.Unlock()
	return value.Null, false, cl
}

// Peek reports whether a value is available without consuming it.
func (c *Chan) Peek() bool {
	c.mu.Lock()
	n := c.size
	c.mu.Unlock()
	return n > 0
}

// Len returns the number of queued values.
func (c *Chan) Len() int {
	c.mu.Lock()
	n := c.size
	c.mu.Unlock()
	return n
}

// Saturated reports whether producers should pause.
func (c *Chan) Saturated() bool { return c.Len() >= HighWater }

// Close marks end-of-stream and wakes the consumer so it can observe the
// closure after draining. Close is idempotent.
func (c *Chan) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	consumer, sched := c.consumer, c.sched
	c.mu.Unlock()
	if consumer != nil && sched != nil {
		sched.Schedule(consumer)
	}
}

// Closed reports whether Close has been called (regardless of drain state).
func (c *Chan) Closed() bool {
	c.mu.Lock()
	cl := c.closed
	c.mu.Unlock()
	return cl
}

// Reset returns the channel to its initial open empty state (graph
// pooling), releasing the reference held for every still-queued value.
func (c *Chan) Reset() {
	c.mu.Lock()
	for i := 0; i < c.size; i++ {
		c.buf[(c.head+i)%len(c.buf)].Release()
	}
	for i := range c.buf {
		c.buf[i] = value.Null
	}
	c.head, c.size = 0, 0
	c.closed = false
	c.mu.Unlock()
}
