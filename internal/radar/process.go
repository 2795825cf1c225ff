package radar

import (
	"fmt"
	"math"
	"math/cmplx"

	"ros/internal/dsp"
)

// RangeProfile is the per-channel range response of one frame (Eq 3).
type RangeProfile struct {
	// Bins is indexed [rx][rangeBin]; magnitudes are normalized so a point
	// scatterer's peak equals its Scatterer.Amplitude. The channel slices
	// are views over one contiguous buffer.
	Bins [][]complex128
	// BinSize is the range per bin in meters.
	BinSize float64

	// buf is the pooled backing store, nil for hand-built profiles.
	buf *chanBuf
}

// RangeProfile applies the range transform of Eq 3 to a frame via the
// per-read plan: one batched, fused Hann-window IFFT over all channels.
// See SynthPlan.RangeProfile.
func (c Config) RangeProfile(f Frame) RangeProfile {
	return c.NewSynthPlan().RangeProfile(f)
}

// RangeProfile applies the range transform of Eq 3 to a frame: an IFFT over
// fast time per channel, Hann-windowed against range sidelobes (a -2 dBsm
// street lamp would otherwise smear -13 dB rectangular sidelobes across the
// whole profile) and normalized by the window's coherent gain and the
// sample count so bin magnitudes are calibrated amplitudes. (The beat phase
// decreases with time — see Synthesize — so the range peak appears in the
// IFFT, exactly as Eq 3 writes it.)
//
// All channels are transformed in one batched call of the plan's fused
// window+FFT kernel (dsp.Plan.InverseMany) straight from the frame's
// contiguous buffer into the pooled profile buffer: no window pass, no
// scale pass, no per-call allocation in steady state.
func (p *SynthPlan) RangeProfile(f Frame) RangeProfile {
	c := p.cfg
	if f.NumRx != c.NumRx || len(f.Data) != c.NumRx*c.Samples {
		panic(fmt.Sprintf("radar: frame has %dx%d samples, config wants %dx%d",
			f.NumRx, f.Samples, c.NumRx, c.Samples))
	}
	if f.Samples != c.Samples {
		panic(fmt.Sprintf("radar: frame channels hold %d samples, config %d", f.Samples, c.Samples))
	}
	buf := p.pool.acquire(c.NumRx, c.Samples, false)
	p.rangePlan.InverseMany(buf.flat, f.Data, c.NumRx, c.Samples)
	return RangeProfile{Bins: buf.views, BinSize: c.RangeBinSize(), buf: buf}
}

// BinForRange returns the range bin index closest to r meters.
func (c Config) BinForRange(r float64) int {
	b := int(math.Round(r / c.RangeBinSize()))
	if b < 0 {
		b = 0
	}
	if b >= c.Samples {
		b = c.Samples - 1
	}
	return b
}

// AoASpectrum evaluates Eq 4 at one range bin: conventional beamforming
// across the Rx array over the given steering angles (radians from
// boresight). It returns the beamformed power (watts) per angle. When angles
// is the cached scan grid (ScanAngles), the per-Config precomputed steering
// kernels are used and the loop runs no trig at all.
func (c Config) AoASpectrum(rp RangeProfile, bin int, angles []float64) []float64 {
	out := make([]float64, len(angles))
	c.AoASpectrumInto(out, rp, bin, angles)
	return out
}

// AoASpectrumInto is AoASpectrum writing into a caller-provided buffer (one
// power per angle), so per-bin scans inside the point-cloud loop allocate
// nothing. dst must have length len(angles).
func (c Config) AoASpectrumInto(dst []float64, rp RangeProfile, bin int, angles []float64) {
	c.aoaSpectrumTab(dst, rp, bin, angles, c.steering())
}

// ScanAngles returns the plan's AoA scan grid; see Config.ScanAngles. The
// slice is shared and must be treated as read-only.
func (p *SynthPlan) ScanAngles() []float64 { return p.steer.angles }

// AoASpectrumInto is Config.AoASpectrumInto against the plan's captured
// steering table, so the per-bin scan never touches a shared cache.
func (p *SynthPlan) AoASpectrumInto(dst []float64, rp RangeProfile, bin int, angles []float64) {
	p.cfg.aoaSpectrumTab(dst, rp, bin, angles, p.steer)
}

// aoaSpectrumTab evaluates Eq 4 at one range bin against an explicit
// steering table. When angles is the table's own scan grid the precomputed
// kernels are used and the loop runs no trig at all.
func (c Config) aoaSpectrumTab(dst []float64, rp RangeProfile, bin int, angles []float64, tab *steeringTable) {
	if bin < 0 || bin >= len(rp.Bins[0]) {
		panic(fmt.Sprintf("radar: AoA at bin %d of %d", bin, len(rp.Bins[0])))
	}
	if len(dst) != len(angles) {
		panic(fmt.Sprintf("radar: AoA dst has %d slots for %d angles", len(dst), len(angles)))
	}
	if len(angles) > 0 && len(angles) == len(tab.angles) && &angles[0] == &tab.angles[0] {
		// Cached-kernel path: gather the bin across channels once, then one
		// NumRx-length complex dot product per angle.
		var vbuf [16]complex128
		v := vbuf[:0]
		if c.NumRx > len(vbuf) {
			v = make([]complex128, 0, c.NumRx)
		}
		for k := 0; k < c.NumRx; k++ {
			v = append(v, rp.Bins[k][bin])
		}
		inv := complex(1/float64(c.NumRx), 0)
		for a := range angles {
			w := tab.weights[a*tab.numRx : (a+1)*tab.numRx]
			var sum complex128
			for k, x := range v {
				sum += x * w[k]
			}
			sum *= inv
			dst[a] = real(sum)*real(sum) + imag(sum)*imag(sum)
		}
		return
	}
	for i, th := range angles {
		dst[i] = c.beamPowerAt(rp, bin, th)
	}
}

// BeamPower is the fast single-angle beamformer used by the spotlight pass
// (Sec 6): the beamformed received power (watts) at one range bin and
// azimuth. It costs one Sincos for the element-to-element phase rotation;
// the steering weights follow by complex recurrence.
func (c Config) BeamPower(rp RangeProfile, bin int, azimuth float64) float64 {
	if bin < 0 || bin >= len(rp.Bins[0]) {
		panic(fmt.Sprintf("radar: AoA at bin %d of %d", bin, len(rp.Bins[0])))
	}
	return c.beamPowerAt(rp, bin, azimuth)
}

func (c Config) beamPowerAt(rp RangeProfile, bin int, th float64) float64 {
	w := 2 * math.Pi * c.RxSpacing * math.Sin(th) / c.Wavelength()
	sin, cos := math.Sincos(w)
	rot := complex(cos, sin)
	steer := complex(1, 0)
	var sum complex128
	for k := 0; k < c.NumRx; k++ {
		sum += rp.Bins[k][bin] * steer
		steer *= rot
	}
	sum /= complex(float64(c.NumRx), 0)
	return real(sum)*real(sum) + imag(sum)*imag(sum)
}

// BeamformRSS "spotlights" a known target (Sec 6): it steers the array to
// the given azimuth at the given range and returns the received power in
// watts.
func (c Config) BeamformRSS(f Frame, rangeM, azimuth float64) float64 {
	rp := c.RangeProfile(f)
	return c.BeamPower(rp, c.BinForRange(rangeM), azimuth)
}

// Detection is one point in the radar point cloud.
type Detection struct {
	// Range in meters.
	Range float64
	// Azimuth in radians from boresight.
	Azimuth float64
	// Power is the beamformed received power in watts.
	Power float64
}

// DetectOptions tunes point-cloud extraction.
type DetectOptions struct {
	// ThresholdDB is the detection threshold above the estimated noise
	// floor (default 12 dB).
	ThresholdDB float64
	// MaxPerBin caps the number of angular peaks kept per range bin
	// (default 2).
	MaxPerBin int
	// MinRange drops the DC/leakage region (default: 4 range bins).
	MinRange float64
	// UseCFAR replaces the global median threshold with cell-averaging
	// CFAR (see CFARDetect), which stays calibrated when clutter raises
	// the floor locally.
	UseCFAR bool
	// CFAR tunes the CFAR detector when UseCFAR is set.
	CFAR CFAROptions
	// DisableIncremental makes PointCloudScan ignore any supplied
	// ScanState and walk every bin each frame — the reference behavior the
	// incremental scan is pinned against.
	DisableIncremental bool
}

// PointCloud extracts detections from a frame: per range bin, non-coherent
// power across channels against a median-based noise estimate, then an AoA
// scan for bins above threshold (the standard flow of Sec 3.2).
func (c Config) PointCloud(f Frame, opts DetectOptions) []Detection {
	return c.PointCloudFromProfile(c.RangeProfile(f), opts)
}

// PointCloudFromProfile is PointCloud for an already-computed range profile
// (callers that also spotlight objects reuse the profile). It always runs a
// full scan; streaming callers thread a ScanState through PointCloudScan
// instead.
func (c Config) PointCloudFromProfile(rp RangeProfile, opts DetectOptions) []Detection {
	return c.PointCloudScan(rp, opts, nil)
}

// PointCloudScan is PointCloudFromProfile with frame-to-frame scan state:
// st seeds the noise-floor median with the previous frame's estimate and —
// when a coverage check proves it exact — restricts the candidate loop to
// the previous frame's above-threshold bins plus a guard band (see
// scan.go). The detections are byte-identical to the full scan for every
// state; st only changes how much work the scan does. A nil st (or
// opts.DisableIncremental, or opts.UseCFAR, whose local thresholds need
// every bin) always walks the full profile.
func (c Config) PointCloudScan(rp RangeProfile, opts DetectOptions, st *ScanState) []Detection {
	return c.pointCloudScanTab(rp, opts, st, c.steering())
}

// PointCloudScan is Config.PointCloudScan against the plan's captured
// steering table, so the per-frame detection pass never touches a shared
// cache.
func (p *SynthPlan) PointCloudScan(rp RangeProfile, opts DetectOptions, st *ScanState) []Detection {
	return p.cfg.pointCloudScanTab(rp, opts, st, p.steer)
}

// pointCloudScanTab is the scan body against an explicit steering table.
func (c Config) pointCloudScanTab(rp RangeProfile, opts DetectOptions, st *ScanState, tab *steeringTable) []Detection {
	if opts.ThresholdDB == 0 {
		opts.ThresholdDB = 12
	}
	if opts.MaxPerBin == 0 {
		opts.MaxPerBin = 2
	}
	if opts.MinRange == 0 {
		opts.MinRange = 4 * c.RangeBinSize()
	}
	if opts.DisableIncremental {
		st = nil
	}
	n := len(rp.Bins[0])

	// Non-coherent channel-summed power per range bin. A pooled profile
	// carries two idle scratch lanes of exactly this length (the synthesis
	// kernel's tone lanes); borrowing them for the power sum and the median
	// scratch makes the per-frame detection pass allocation-free.
	var power, scratch []float64
	if rp.buf != nil {
		power, scratch = lanes(&rp.buf.laneRe, &rp.buf.laneIm, n)
	} else {
		flat := make([]float64, 2*n)
		power, scratch = flat[:n], flat[n:]
	}
	for ci, ch := range rp.Bins {
		if ci == 0 {
			for i, v := range ch {
				power[i] = real(v)*real(v) + imag(v)*imag(v)
			}
			continue
		}
		for i, v := range ch {
			power[i] += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	// The median is rank-exact either way; a valid state seeds the
	// selection with the previous frame's floor, which partitions most of
	// the scratch away in one pass.
	copy(scratch, power)
	var noise float64
	if st != nil && st.valid {
		noise = dsp.PercentileInPlaceSeeded(scratch, 50, st.noise)
	} else {
		noise = dsp.MedianInPlace(scratch)
	}
	if noise <= 0 {
		noise = 1e-30
	}
	thresh := noise * dsp.FromDB(opts.ThresholdDB)
	var cfarHits []bool
	if opts.UseCFAR {
		cfar := opts.CFAR
		if cfar.ThresholdDB == 0 {
			cfar.ThresholdDB = opts.ThresholdDB
		}
		cfarHits = make([]bool, n)
		for _, idx := range CFARDetect(power, cfar) {
			cfarHits[idx] = true
		}
	}

	// Hint-restriction coverage check: the scan may skip unhinted bins only
	// when none of them clears this frame's threshold — then every possible
	// candidate (above threshold AND a local maximum) is hinted, and the
	// restricted loop provably emits the full scan's detections. A target
	// popping in outside the guard band, or a floor shift, fails the check
	// and takes the full loop.
	incremental := false
	if st != nil && !opts.UseCFAR && st.valid && len(st.active) == n && st.frames < scanRefreshInterval {
		maxOut := 0.0
		for i, p := range power {
			if !st.active[i] && p > maxOut {
				maxOut = p
			}
		}
		incremental = maxOut < thresh
	}

	angles := tab.angles
	// The median scratch is free again; it holds the AoA spectrum when the
	// scan grid fits (it does for every config with Samples >= 121 bins).
	var spec []float64
	if len(angles) <= len(scratch) {
		spec = scratch[:len(angles)]
	} else {
		spec = make([]float64, len(angles))
	}
	var out []Detection
	scanBin := func(i int) {
		r := float64(i) * rp.BinSize
		if r < opts.MinRange {
			return
		}
		if opts.UseCFAR {
			if !cfarHits[i] {
				return
			}
		} else if power[i] < thresh || power[i] < power[i-1] || power[i] <= power[i+1] {
			return
		}
		c.aoaSpectrumTab(spec, rp, i, angles, tab)
		// Gate at 20 percent of the strongest response so the 4-element
		// array's -11 dB sidelobes do not spawn ghost points.
		maxSpec, _ := dsp.Max(spec)
		minHeight := math.Max(dsp.Mean(spec), 0.2*maxSpec)
		peaks := dsp.FindPeaks(spec, minHeight, 3)
		if len(peaks) > opts.MaxPerBin {
			peaks = peaks[:opts.MaxPerBin]
		}
		for _, p := range peaks {
			az := angles[0] + p.Pos*(angles[1]-angles[0])
			out = append(out, Detection{Range: r, Azimuth: az, Power: p.Value})
		}
	}
	if incremental {
		mScanIncremental.Inc()
		for _, i := range st.hints {
			scanBin(i)
		}
	} else {
		mScanFull.Inc()
		for i := 1; i < n-1; i++ {
			scanBin(i)
		}
	}
	if st != nil {
		if opts.UseCFAR {
			// CFAR thresholds are local; the global-floor hint machinery
			// does not describe them. Leave the state cold.
			st.Reset()
		} else {
			st.update(n, power, thresh, noise, incremental)
		}
	}
	return out
}

// ChannelPower returns the total power in one channel of a frame (useful for
// diagnostics and tests).
func ChannelPower(f Frame, k int) float64 {
	sum := 0.0
	for _, v := range f.Channel(k) {
		sum += cmplx.Abs(v) * cmplx.Abs(v)
	}
	return sum
}
