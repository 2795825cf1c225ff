package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ros/internal/beamshape"
	"ros/internal/cluster"
	"ros/internal/coding"
	"ros/internal/detect"
	"ros/internal/dsp"
	"ros/internal/geom"
	"ros/internal/radar"
	"ros/internal/scene"
	"ros/internal/sim"
	"ros/internal/stack"
	"ros/internal/sweep"
)

// Span names of the replayed stages, which are also the per-layer metric
// names (with an _ms suffix).
const (
	spanScatterers = "scene.scatterers"
	spanSynthesize = "radar.synthesize"
	spanRangeFFT   = "radar.range_fft"
	spanPointCloud = "radar.point_cloud"
	spanDBSCAN     = "cluster.dbscan"
	spanDecode     = "coding.decode"
)

// readShape is the pass a workload's reads simulate: the canonical read
// (beam-shaped 32-module stack, 280 frames) or the service's read (flat
// 32-module stack, 48 frames). Both are "1111" at 3 m and 2 m/s without
// clutter.
type readShape struct {
	shaped bool
	frames int
}

var (
	canonicalShape = readShape{shaped: true, frames: 280}
	serviceShape   = readShape{shaped: false, frames: 128}
)

const (
	tagBits  = "1111"
	standoff = 3.0
	speedMPS = 2.0
)

// driveBy is the pass configuration a read of this shape runs at
// Workers 1, as ros.Reader and rosd build it.
func (s readShape) driveBy(seed int64) sim.DriveBy {
	return sim.DriveBy{
		Bits: tagBits, StackModules: 32, BeamShaped: s.shaped,
		Standoff: standoff, Speed: speedMPS, FrameBudget: s.frames,
		Workers: 1, Seed: seed,
	}
}

// replay re-runs one pass's per-frame stages at Workers 1, calling each
// layer directly so a span can sit around every call: the same scene, poses,
// random streams and plan the read pipeline uses, minus its spotlight,
// classification and orchestration (which detect.other_ms accounts for).
type replay struct {
	sc     *scene.Scene
	poses  []geom.Vec3
	plan   *radar.SynthPlan
	detect radar.DetectOptions
	eps    float64
	minPts int
	layout *coding.Layout
}

func newReplay(s readShape) (*replay, error) {
	bits, err := coding.ParseBits(tagBits)
	if err != nil {
		return nil, err
	}
	layout, err := coding.NewLayout(bits, coding.DefaultDelta())
	if err != nil {
		return nil, err
	}
	st := stack.NewUniform(32)
	if s.shaped {
		st = beamshape.Shaped(32)
	}
	tag, err := scene.NewTag(layout, st, geom.Vec3{})
	if err != nil {
		return nil, err
	}
	rcfg := radar.TI1443()
	half := 1.4 * standoff
	frames := min(s.frames, int(2*half/speedMPS*rcfg.FrameRate))
	poses := make([]geom.Vec3, frames)
	for i := range poses {
		poses[i] = geom.Vec3{X: -half + 2*half*float64(i)/float64(frames-1), Y: standoff}
	}
	p := detect.NewPipeline(rcfg)
	r := &replay{
		sc:     &scene.Scene{Tags: []*scene.Tag{tag}},
		poses:  poses,
		plan:   rcfg.NewSynthPlan(),
		detect: p.Detect,
		eps:    p.ClusterEps,
		minPts: p.ClusterMinPts,
		layout: layout,
	}
	if r.eps <= 0 {
		r.eps = 0.25 // detect.Pipeline's default
	}
	if r.minPts <= 0 {
		r.minPts = 10 // detect.Pipeline's default
	}
	return r, nil
}

// pass replays every frame of one pass under a root span, then clusters the
// merged point cloud.
func (r *replay) pass(tr *tracer, trace int64, seed int64) {
	root := tr.id()
	start := time.Now()
	fe := r.plan.Config().FrontEnd
	f := r.plan.Config().CenterFrequency
	vel := geom.Vec3{X: speedMPS}
	var states radar.ScanStatePool
	var points []cluster.Point
	for i, pose := range r.poses {
		rng := sweep.NewRand(seed, i)
		g := dsp.AcquireGauss(sweep.SubSeed(sweep.SubSeed(seed, i), 1))
		var det, dec []radar.Scatterer
		tr.span(trace, root, spanScatterers, func() {
			det = r.sc.Scatterers(pose, vel, scene.ModeDetect, fe, f, rng)
			dec = r.sc.Scatterers(pose, vel, scene.ModeDecode, fe, f, rng)
		})
		var detF, decF radar.Frame
		tr.span(trace, root, spanSynthesize, func() {
			detF = r.plan.Synthesize(det, g)
			decF = r.plan.Synthesize(dec, g)
		})
		dsp.ReleaseGauss(g)
		var detP, decP radar.RangeProfile
		tr.span(trace, root, spanRangeFFT, func() {
			detP = r.plan.RangeProfile(detF)
			decP = r.plan.RangeProfile(decF)
		})
		radar.ReleaseFrame(detF)
		radar.ReleaseFrame(decF)
		tr.span(trace, root, spanPointCloud, func() {
			st := states.Get()
			for _, d := range r.plan.PointCloudScan(detP, r.detect, st) {
				world := pose.XY().Add(geom.Vec2{X: d.Range * math.Sin(d.Azimuth), Y: -d.Range * math.Cos(d.Azimuth)})
				points = append(points, cluster.Point{Pos: world, Weight: d.Power})
			}
			states.Put(st)
		})
		radar.ReleaseProfile(detP)
		radar.ReleaseProfile(decP)
	}
	tr.span(trace, root, spanDBSCAN, func() { cluster.DBSCAN(points, r.eps, r.minPts) })
	tr.add(root, trace, 0, "replay.pass", start, time.Now())
}

// decodeInput runs the pass once through sim and returns the tag's RCS
// samples, the decoder's input.
func decodeInput(s readShape, seed int64) (u, rss []float64, err error) {
	out, err := sim.RunContext(context.Background(), s.driveBy(seed))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		out.Detection.Span = nil
		out.Span.Release()
	}()
	if !out.Detected || out.Bits != tagBits {
		return nil, nil, fmt.Errorf("decode input: pass seed %d read %q (detected %v)", seed, out.Bits, out.Detected)
	}
	return out.Detection.TagU, out.Detection.TagRSS, nil
}

// decode times the spectral decoder on the given samples under a span.
func (r *replay) decode(tr *tracer, trace int64, u, rss []float64) error {
	dec, err := coding.NewDecoder(len(tagBits), r.layout.Delta, r.plan.Config().Wavelength())
	if err != nil {
		return err
	}
	var res *coding.Result
	tr.span(trace, 0, spanDecode, func() { res, err = dec.Decode(u, rss) })
	if err != nil {
		return err
	}
	if got := coding.BitsString(res.Bits); got != tagBits {
		return fmt.Errorf("replayed decode read %q, want %q", got, tagBits)
	}
	return nil
}
