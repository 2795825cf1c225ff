package radar

import (
	"sync"

	"ros/internal/dsp"
)

// chanBuf is the pooled backing store behind frames and range profiles: one
// contiguous channel-major buffer plus per-channel views over it. Frames use
// flat directly (the batched range transform consumes the contiguous
// layout); range profiles expose the views as RangeProfile.Bins. The buffer
// also carries the split re/im tone lanes of the synthesis kernel, so a
// frame's scatterer loop allocates nothing.
type chanBuf struct {
	flat  []complex128
	views [][]complex128
	// numRx and n record the shape the views currently describe, so a
	// same-shape reuse skips rebuilding them.
	numRx, n int
	// laneRe/laneIm are the structure-of-arrays scratch lanes of the tone
	// kernel (dsp.ToneFill), sized lazily to the sample count; the float32
	// pair serves plans that select the reduced-precision kernel lane.
	laneRe, laneIm     []float64
	laneRe32, laneIm32 []float32
	// home is the pool the buffer recycles through, so ReleaseFrame and
	// ReleaseProfile return it to the synthesis plan that produced it.
	home *framePool
}

// newChanBuf allocates a fresh [numRx][n] buffer.
func newChanBuf(numRx, n int) *chanBuf {
	b := &chanBuf{flat: make([]complex128, numRx*n)}
	b.reshape(numRx, n)
	return b
}

// reshape reslices the buffer to [numRx][n], rebuilding the channel views
// only when the shape actually changed. The caller guarantees
// cap(flat) >= numRx*n.
func (b *chanBuf) reshape(numRx, n int) {
	b.flat = b.flat[:numRx*n]
	if b.numRx == numRx && b.n == n {
		return
	}
	if cap(b.views) < numRx {
		b.views = make([][]complex128, numRx)
	}
	b.views = b.views[:numRx]
	for k := range b.views {
		b.views[k] = b.flat[k*n : (k+1)*n]
	}
	b.numRx, b.n = numRx, n
}

// lanes returns a buffer's tone scratch lanes resliced to n samples,
// growing them on first use (or on the largest config seen so far).
func lanes[T dsp.Lane](re, im *[]T, n int) ([]T, []T) {
	if cap(*re) < n || cap(*im) < n {
		*re, *im = make([]T, n), make([]T, n)
	}
	return (*re)[:n], (*im)[:n]
}

// framePool recycles chanBufs for one synthesis plan. A drive-by synthesizes
// and transforms two frames per pose (~560 per pass), and with the frame
// loop running on a worker pool the buffers would otherwise be reallocated
// from every worker; recycling them keeps the steady-state allocation rate
// near zero. Reuse is by capacity, not exact shape: a pooled buffer big
// enough for the requested [numRx][n] is resliced to it, so a plan serving
// heterogeneous profile shapes keeps recycling one high-water-mark buffer
// instead of degrading to a malloc per frame whenever the shape flips. Only
// a buffer strictly too small for the request is dropped for the garbage
// collector.
//
// Pools moved from one process-global to per-plan ownership with the Session
// handle: releasing a plan's owner releases its buffers, and two handles
// never share pool contents.
type framePool struct {
	p sync.Pool
}

// acquire returns a [numRx][n] buffer homed to this pool, zeroed when zero
// is set (frame synthesis accumulates with +=; the range transform
// overwrites every element and skips the clear).
func (fp *framePool) acquire(numRx, n int, zero bool) *chanBuf {
	need := numRx * n
	if v := fp.p.Get(); v != nil {
		b := v.(*chanBuf)
		if cap(b.flat) >= need {
			b.reshape(numRx, n)
			if zero {
				clear(b.flat)
			}
			b.home = fp
			return b
		}
		// Too small for this request: drop it and allocate at the new
		// high-water mark, which then serves every smaller shape.
	}
	b := newChanBuf(numRx, n)
	b.home = fp
	return b
}

// put returns a buffer to the pool.
func (fp *framePool) put(b *chanBuf) {
	b.home = fp
	fp.p.Put(b)
}

// adoptFrom drains other's buffers into this pool. Used when two goroutines
// race to build the same synthesis plan: the winner adopts the buffers the
// discarded plan pre-warmed, so no pooled memory strands in an unreachable
// pool.
func (fp *framePool) adoptFrom(other *framePool) {
	for {
		v := other.p.Get()
		if v == nil {
			return
		}
		fp.put(v.(*chanBuf))
	}
}

// ReleaseFrame returns a frame's sample buffer to its plan's pool. The
// caller must not touch the frame afterwards; frames that escape to
// long-lived results should simply not be released.
func ReleaseFrame(f Frame) {
	if f.buf != nil && f.buf.home != nil {
		f.buf.home.put(f.buf)
	}
}

// ReleaseProfile returns a range profile's bin buffers to its plan's pool.
// Same contract as ReleaseFrame.
func ReleaseProfile(rp RangeProfile) {
	if rp.buf != nil && rp.buf.home != nil {
		rp.buf.home.put(rp.buf)
	}
}
