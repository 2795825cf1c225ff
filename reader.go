package ros

import (
	"context"
	"fmt"
	"time"

	"ros/internal/em"
	"ros/internal/engine"
	"ros/internal/fault"
	"ros/internal/obs"
	"ros/internal/radar"
	"ros/internal/roserr"
	"ros/internal/sim"
	"ros/internal/trace"
)

// Reader is a vehicle-mounted radar configuration for reading tags.
type Reader struct {
	radar radar.Config
	// engine is the optional resource handle reads draw memoized state
	// from; nil uses the process-wide default engine (see WithEngine).
	engine *engine.Engine
}

// ReaderOption customizes NewReader.
type ReaderOption func(*Reader)

// WithCommercialFrontEnd swaps the TI evaluation front end for the
// commercial automotive radar of Sec 8 (NF 9 dB, EIRP 50 dBm), extending the
// reading range from ~7 m to ~52 m.
func WithCommercialFrontEnd() ReaderOption {
	return func(r *Reader) {
		r.radar.FrontEnd = em.CommercialRadar()
	}
}

// WithFrameRate overrides the radar frame repetition rate in Hz.
func WithFrameRate(hz float64) ReaderOption {
	return func(r *Reader) {
		r.radar.FrameRate = hz
	}
}

// WithFloat64Reference forces full float64 frame synthesis even where the
// ADC word length leaves float32 headroom. Reads slow down and the thermal
// noise stream changes (the float32 lane draws a differently-batched
// realization); decoded bits do not. For A/B verification and numerical
// forensics, not production reads.
func WithFloat64Reference() ReaderOption {
	return func(r *Reader) {
		r.radar.ForceFloat64 = true
	}
}

// NewReader builds a reader around the paper's TI IWR1443 configuration.
func NewReader(opts ...ReaderOption) *Reader {
	r := &Reader{radar: radar.TI1443()}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// MaxRange returns the link-budget reading range in meters for the paper's
// 32-module tag (Sec 5.3).
func (r *Reader) MaxRange() float64 {
	return r.radar.FrontEnd.MaxRange(em.TagRCS32StackDBsm, r.radar.CenterFrequency)
}

// ReadOptions configures one simulated drive-by read.
type ReadOptions struct {
	// Standoff is the closest radar-to-tag distance in meters (default 3).
	Standoff float64
	// SpeedMPS is the vehicle speed in m/s (default 2, a slow cart).
	SpeedMPS float64
	// HeightOffset is the radar-vs-tag-center height mismatch in meters.
	HeightOffset float64
	// Fog selects the weather (FogClear, FogLight, FogHeavy).
	Fog FogLevel
	// TrackingError is the vehicle's relative self-tracking drift
	// (e.g. 0.02 for 2 percent).
	TrackingError float64
	// WithClutter surrounds the tag with typical roadside objects.
	WithClutter bool
	// Seed drives all randomness; equal seeds reproduce reads exactly —
	// byte-identically, at any Workers setting or GOMAXPROCS.
	Seed int64
	// Workers caps the worker pool of the per-frame radar loop; 0 uses
	// GOMAXPROCS. The result does not depend on it.
	Workers int
	// Fault enables deterministic fault injection for chaos testing (nil
	// injects nothing); see FaultOptions. A read with Fault nil is
	// byte-identical to one from a build without the fault layer.
	Fault *FaultOptions
	// DisableIncrementalScan makes every per-frame point-cloud scan walk
	// all range bins instead of seeding candidates from the previous
	// frame's detections. The read is byte-identical either way (the
	// incremental scan is exact); this exists for A/B verification and
	// perf forensics.
	DisableIncrementalScan bool
}

// FaultOptions configures deterministic fault injection inside a read: each
// rate is a per-frame probability, decided purely by (Seed, frame index) on
// a stream independent of the physics randomness. Reads degrade gracefully —
// dropped or corrupted frames become gaps in the decoder's aggregate — until
// more than half the frames are lost, at which point the read fails with
// ErrFrameCorrupt.
type FaultOptions struct {
	// Seed drives the fault decisions (independent of ReadOptions.Seed).
	Seed int64
	// FrameDropRate loses whole frames; CorruptRate overwrites samples with
	// NaN/Inf (scrubbed before the FFT); BurstRate adds finite burst noise;
	// PanicRate panics the frame's worker (recovered, counted, degraded);
	// DelayRate stalls frames by Delay (default 1 ms).
	FrameDropRate, CorruptRate, BurstRate, PanicRate, DelayRate float64
	// Delay is the injected per-frame latency when DelayRate fires.
	Delay time.Duration
}

// FogLevel re-exports the weather conditions of Fig 16c.
type FogLevel = em.FogLevel

// Fog levels.
const (
	FogClear = em.FogClear
	FogLight = em.FogLight
	FogHeavy = em.FogHeavy
)

// Reading is the outcome of one drive-by.
type Reading struct {
	// Detected tells whether the tag was found and classified among the
	// roadside objects.
	Detected bool
	// Bits is the decoded bit string.
	Bits string
	// SNRdB is the decoding SNR of Sec 7.1.
	SNRdB float64
	// BER is the implied on-off-keying bit error rate.
	BER float64
	// RSSLossDB is the tag's polarization-loss feature (Fig 13a).
	RSSLossDB float64
	// MedianRSSdBm is the tag's median received signal strength.
	MedianRSSdBm float64
	// Stats counts the work behind the read (frames synthesized, FFT
	// calls, per-stage time).
	Stats ReadStats
	// Partial marks a read cut short by cancellation or excess frame loss;
	// the accompanying error matches ErrReadCancelled or ErrFrameCorrupt.
	Partial bool
	// FlightSeq is the read's sequence number in the flight recorder
	// (served at /debug/flight; dumped by rosbench -flight), or -1 when the
	// recorder's sampling policy skipped this read.
	FlightSeq int64

	// capture holds the raw (u, RSS) samples backing the read, for
	// SaveCapture.
	capture *trace.Capture
}

// ReadStats counts the signal-processing work behind one read. Stage times
// for the parallel frame loop are summed across workers; Wall is the
// end-to-end duration.
type ReadStats struct {
	// Frames is the number of radar frames synthesized.
	Frames int
	// FFTCalls is the number of fast-time FFTs run.
	FFTCalls int64
	// Workers is the resolved frame-loop worker count.
	Workers int
	// Synthesize, RangeFFT, PointCloud, Cluster, Spotlight and Decode are
	// the per-stage durations; Wall is the whole read.
	Synthesize, RangeFFT, PointCloud, Cluster, Spotlight, Decode, Wall time.Duration
	// FramesCompleted and FramesDropped count frame poses that produced
	// usable data and poses lost to faults; SamplesScrubbed counts
	// non-finite samples repaired before the range transform. All zero on
	// a clean, fault-free read except FramesCompleted.
	FramesCompleted, FramesDropped, SamplesScrubbed int
}

// SaveCapture archives the read's raw RCS samples as JSON, decodable later
// with cmd/rosdecode or Decode. It fails when the read detected no tag.
func (r *Reading) SaveCapture(path, note string) error {
	if r.capture == nil {
		return fmt.Errorf("ros: %w: reading has no capture", ErrNoTag)
	}
	c := *r.capture
	c.Note = note
	return trace.Save(path, &c)
}

// Read simulates a drive-by past the tag and decodes it end to end: FMCW
// frame synthesis, point-cloud detection, clustering, polarization
// classification, RCS sampling, and spectral decoding.
func (r *Reader) Read(t *Tag, opts ReadOptions) (*Reading, error) {
	return r.ReadContext(context.Background(), t, opts)
}

// ReadContext is Read under a context. Cancellation is cooperative at frame
// and stage boundaries: when ctx is cancelled or its deadline expires the
// read returns promptly with a partial Reading (Partial set, frame counters
// in Stats) and an error matching both ErrReadCancelled and the context
// cause (errors.Is(err, context.DeadlineExceeded) etc.). Frames completed
// before the cut are byte-identical to the ones a full run would produce.
func (r *Reader) ReadContext(ctx context.Context, t *Tag, opts ReadOptions) (*Reading, error) {
	if t == nil {
		return nil, fmt.Errorf("ros: %w: nil tag", roserr.ErrConfig)
	}
	cfg := sim.DriveBy{
		Bits:          t.bits,
		StackModules:  t.modules,
		BeamShaped:    t.shaped,
		Standoff:      opts.Standoff,
		Speed:         opts.SpeedMPS,
		HeightOffset:  opts.HeightOffset,
		Fog:           opts.Fog,
		TrackingError: opts.TrackingError,
		WithClutter:   opts.WithClutter,
		Seed:          opts.Seed,
		Workers:       opts.Workers,
		Radar:         &r.radar,
		Engine:        r.engine,

		DisableIncrementalScan: opts.DisableIncrementalScan,
	}
	if f := opts.Fault; f != nil {
		cfg.Fault = &fault.Config{
			Seed:          f.Seed,
			FrameDropRate: f.FrameDropRate,
			CorruptRate:   f.CorruptRate,
			BurstRate:     f.BurstRate,
			PanicRate:     f.PanicRate,
			DelayRate:     f.DelayRate,
			Delay:         f.Delay,
		}
	}
	out, err := sim.RunContext(ctx, cfg)
	if err != nil && out == nil {
		obs.Logger().Error("ros: read failed", "seed", opts.Seed, "err", err)
		return nil, err
	}
	reading := &Reading{
		Detected:     out.Detected,
		Bits:         out.Bits,
		SNRdB:        out.SNRdB,
		BER:          out.BER,
		RSSLossDB:    out.RSSLossDB,
		MedianRSSdBm: out.MedianRSSdBm,
		Partial:      out.Partial,
		FlightSeq:    out.FlightSeq,
		Stats: ReadStats{
			FramesCompleted: out.FramesCompleted,
			FramesDropped:   out.FramesDropped,
			SamplesScrubbed: out.SamplesScrubbed,
			Frames:          out.Stats.Frames,
			FFTCalls:        out.Stats.FFTCalls,
			Workers:         out.Stats.Workers,
			Synthesize:      time.Duration(out.Stats.SynthesizeNS),
			RangeFFT:        time.Duration(out.Stats.RangeFFTNS),
			PointCloud:      time.Duration(out.Stats.PointCloudNS),
			Cluster:         time.Duration(out.Stats.ClusterNS),
			Spotlight:       time.Duration(out.Stats.SpotlightNS),
			Decode:          time.Duration(out.Stats.DecodeNS),
			Wall:            time.Duration(out.Stats.WallNS),
		},
	}
	if err != nil {
		// Partial read: return what completed alongside the typed error so
		// callers can both inspect the Reading and branch on errors.Is.
		obs.Logger().Warn("ros: partial read", "seed", opts.Seed,
			"frames_completed", reading.Stats.FramesCompleted, "err", err)
		if out.Detection != nil {
			out.Detection.Span = nil
		}
		out.Span.Release()
		out.Span = nil
		return reading, err
	}
	if out.Detected && len(out.Detection.TagU) >= 8 {
		reading.capture = &trace.Capture{
			Version:      trace.CurrentVersion,
			Bits:         len(t.bits),
			DeltaMeters:  t.layout.Delta,
			LambdaMeters: r.radar.Wavelength(),
			U:            out.Detection.TagU,
			RSS:          out.Detection.TagRSS,
			Range:        out.Detection.TagRange,
		}
	} else if out.Detected {
		// A detected tag with under 8 RCS samples silently produced a
		// Reading without a capture before the obs layer; say so.
		obs.Logger().Info("ros: too few RCS samples to archive a capture",
			"samples", len(out.Detection.TagU), "seed", opts.Seed)
	}
	obs.Logger().Debug("ros: read complete",
		"detected", reading.Detected, "bits", reading.Bits,
		"snr_db", reading.SNRdB, "wall", reading.Stats.Wall)
	// The Reading exposes the flat ReadStats view only, so the span tree
	// can go back to the pool; drop the Detection's alias into it first.
	out.Detection.Span = nil
	out.Span.Release()
	out.Span = nil
	return reading, nil
}
