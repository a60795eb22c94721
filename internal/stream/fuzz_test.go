package stream

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// FuzzServe decodes a small serving run — a line, clique or cluster of at
// most 32 nodes, a uniform w/k workload, rate, stream length, window and
// queue bounds, policy, pipeline depth 1–4, and a chaos rate that is zero
// or positive — and checks the serving invariants:
//
//   - a config Validate rejects makes Serve return only a *ConfigError;
//   - offered = admitted + rejected, admitted = committed + shed, and the
//     window sizes sum to the committed count;
//   - the run is identical under VerifyFull, VerifyFast and VerifyOff;
//   - the digest is the same at pipeline depth 1 and at the decoded
//     depth. Under chaos the depth sets how late the breaker sees each
//     window's outcome, so the digests are compared only when neither run
//     moved the breaker.
//
// The seed corpus lives in testdata/fuzz/FuzzServe and runs in every
// plain go test.
func FuzzServe(f *testing.F) {
	f.Fuzz(func(t *testing.T, topo, size, wb, kb, rateb uint8, txnsb uint16, window, queue int8, policy, depthb, chaosb uint8, seed int64) {
		n := 1 + int(size)%32
		var top topology.Topology
		switch topo % 3 {
		case 0:
			top = topology.NewLine(n)
		case 1:
			top = topology.NewClique(n)
		default:
			top = topology.NewCluster(1+int(size)%4, 1+int(size/4)%8, 4)
		}
		g := top.Graph()
		w := 1 + int(wb)%32
		k := 1 + int(kb)%w
		rate := float64(1+int(rateb)%100) / 50
		txns := 1 + int(txnsb)%300

		r := rand.New(rand.NewSource(seed))
		home := make([]graph.NodeID, w)
		for o := range home {
			home[o] = g.Nodes()[r.Intn(g.NumNodes())]
		}
		gen, err := MakeGenerator(xrand.NewDerived(seed, "fuzz", "gen"), g, tm.UniformK(w, k), rate, txns)
		if err != nil {
			t.Fatal(err)
		}
		var items sliceSource
		for it, ok := gen.Next(); ok; it, ok = gen.Next() {
			items = append(items, it)
		}
		cfg := Config{
			G: g, Metric: graph.FuncMetric(top.Dist), NumObjects: w, Home: home, Source: items.source(),
			MaxWindow: int(window), QueueCap: int(queue), Policy: Policy(policy % 3),
			Verify: engine.VerifyFast, PipelineDepth: 1 + int(depthb)%4,
		}
		if chaosb%2 == 1 {
			// The horizon and redraw chunk `dtmsched serve -faults` derives.
			eff := cfg.MaxWindow
			if eff <= 0 {
				eff = g.NumNodes()
			}
			cc := ChaosConfig{
				Rate: 0.01 + float64(chaosb/2%30)/100, Seed: seed,
				Horizon: max(int64(2*float64(txns)/rate), 64), Chunk: int64(float64(eff) / rate),
			}
			if cfg.Faults, err = NewChaos(cc, g); err != nil {
				t.Fatal(err)
			}
		}
		serve := func(depth int, verify engine.VerifyMode) (*Result, error) {
			c := cfg
			c.Source, c.PipelineDepth, c.Verify = items.source(), depth, verify
			return Serve(context.Background(), c)
		}

		if verr := cfg.Validate(); verr != nil {
			res, err := serve(cfg.PipelineDepth, cfg.Verify)
			var ce *ConfigError
			if res != nil || !errors.As(err, &ce) {
				t.Fatalf("invalid config (%v): Serve returned %v, %v; want only a *ConfigError", verr, res, err)
			}
			return
		}
		base, err := serve(cfg.PipelineDepth, engine.VerifyFast)
		if err != nil {
			t.Fatalf("valid config failed: %v", err)
		}
		if base.Admitted+base.Rejected != int64(len(items)) {
			t.Fatalf("offered %d != admitted %d + rejected %d", len(items), base.Admitted, base.Rejected)
		}
		if base.Admitted != base.Committed+base.Shed {
			t.Fatalf("admitted %d != committed %d + shed %d", base.Admitted, base.Committed, base.Shed)
		}
		var sized int64
		for _, s := range base.WindowSizes {
			sized += int64(s)
		}
		if sized != base.Committed || len(base.WindowSizes) != base.Windows {
			t.Fatalf("%d window sizes summing to %d, for %d windows and %d committed",
				len(base.WindowSizes), sized, base.Windows, base.Committed)
		}
		for _, mode := range []engine.VerifyMode{engine.VerifyFull, engine.VerifyOff} {
			res, err := serve(cfg.PipelineDepth, mode)
			if err != nil {
				t.Fatalf("verify=%s: %v", mode, err)
			}
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("verify=%s changed the run:\n%+v\nvs verify=fast\n%+v", mode, res, base)
			}
		}
		one, err := serve(1, engine.VerifyFast)
		if err != nil {
			t.Fatalf("depth 1: %v", err)
		}
		if one.BreakerTrips == 0 && base.BreakerTrips == 0 && one.Digest != base.Digest {
			t.Fatalf("depth %d digest %016x, depth 1 %016x", cfg.PipelineDepth, base.Digest, one.Digest)
		}
	})
}
