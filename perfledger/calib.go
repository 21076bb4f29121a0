package main

import (
	"fmt"
	"time"

	"hammertime/internal/addr"
	"hammertime/internal/cache"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
)

// opCosts are host nanoseconds per call of each layer's hot function,
// timed in this process by calling the function on its own.
type opCosts struct {
	Map        float64 // addr.Mapper.Map
	Cache      float64 // cache.Cache.Access
	MCHit      float64 // memctrl.Controller.ServeRequest, row hit
	MCEmpty    float64 // ServeRequest, row empty (closed page: ACT + auto-PRE)
	MCConflict float64 // ServeRequest, row conflict (PRE + ACT)
	Act        float64 // dram.Module.Activate
}

// calibSink keeps the compiler from discarding calibrated calls.
var calibSink uint64

// calibrate times each operation over n calls, five times, and keeps
// the median ns/op.
func calibrate(n int) (opCosts, error) {
	var c opCosts
	var err error
	time5 := func(fn func() error) float64 {
		var xs []float64
		for r := 0; r < 5 && err == nil; r++ {
			t := time.Now()
			err = fn()
			xs = append(xs, float64(time.Since(t).Nanoseconds())/float64(n))
		}
		return median(xs)
	}
	g := dram.DefaultGeometry()
	mapper := addr.NewLineInterleave(g)
	total := g.TotalLines()
	c.Map = time5(func() error {
		for i := 0; i < n; i++ {
			calibSink += uint64(mapper.Map(uint64(i) % total).Row)
		}
		return nil
	})

	llc, cerr := cache.New(cache.DefaultConfig())
	if cerr != nil {
		return c, cerr
	}
	c.Cache = time5(func() error {
		for i := 0; i < n; i++ {
			if llc.Access(uint64(i%100000), i%3 == 0).Hit {
				calibSink++
			}
		}
		return nil
	})

	serve := func(openPage bool, line func(i int) uint64) func() error {
		return func() error {
			mod, err := dram.NewModule(dram.Config{Seed: 1})
			if err != nil {
				return err
			}
			mc, err := memctrl.NewController(memctrl.Config{Mapper: addr.NewLineInterleave(g), DRAM: mod, OpenPage: openPage})
			if err != nil {
				return err
			}
			now := uint64(0)
			for i := 0; i < n; i++ {
				res, err := mc.ServeRequest(memctrl.Request{Line: line(i)}, now)
				if err != nil {
					return fmt.Errorf("calibrate ServeRequest: %w", err)
				}
				now = res.Completion
			}
			return nil
		}
	}
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	c.MCHit = time5(serve(true, func(i int) uint64 { return uint64(i % 8) }))
	c.MCEmpty = time5(serve(false, func(i int) uint64 { return uint64(i % 8) }))
	c.MCConflict = time5(serve(true, func(i int) uint64 { return uint64(i%2) * stripe }))

	c.Act = time5(func() error {
		mod, err := dram.NewModule(dram.Config{Seed: 1})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := mod.Activate(i%8, (i*7)%1024, uint64(i), -1); err != nil {
				return fmt.Errorf("calibrate Activate: %w", err)
			}
		}
		return nil
	})
	return c, err
}

// layerCounts are the simulated operation counts the estimates multiply.
type layerCounts struct {
	Requests, Hits, Empty, Conflicts, Acts, Accesses float64
}

// estimates returns the addr, cache, memctrl and dram host-time
// estimates in ms. Nested costs are subtracted: ServeRequest's cost
// includes a Map and, when it activates, an Activate, so the controller
// keeps only its own share.
func (c opCosts) estimates(n layerCounts) (addrMS, cacheMS, mcMS, dramMS float64) {
	pos := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}
	addrMS = n.Requests * c.Map / 1e6
	cacheMS = n.Accesses * c.Cache / 1e6
	dramMS = n.Acts * c.Act / 1e6
	mcMS = (n.Hits*pos(c.MCHit-c.Map) +
		n.Empty*pos(c.MCEmpty-c.Map-c.Act) +
		n.Conflicts*pos(c.MCConflict-c.Map-c.Act)) / 1e6
	return
}
