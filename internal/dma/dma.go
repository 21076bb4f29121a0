// Package dma models DMA-capable devices (NICs, GPUs, storage) that issue
// memory traffic directly to the memory controller, bypassing both the CPU
// caches and the per-core performance counters. GuardION/Throwhammer-style
// DMA Rowhammer attacks (§1) exploit exactly this: counter-sampling
// defenses like ANVIL never see the traffic, while the memory controller —
// where the paper's primitives live — sees every activation.
package dma

import (
	"fmt"

	"hammertime/internal/cpu"
	"hammertime/internal/memctrl"
)

// Device executes a Program directly against the memory controller.
// It reuses cpu.Program as its stream type; Flush is meaningless for DMA
// (there is no cache on the path) and is ignored.
type Device struct {
	ID     int
	Domain int

	feed cpu.Feed
	mc   *memctrl.Controller

	accesses uint64
	done     bool
}

// NewDevice builds a DMA device running prog in the given trust domain.
func NewDevice(id, domain int, prog cpu.Program, mc *memctrl.Controller) (*Device, error) {
	if prog == nil {
		return nil, fmt.Errorf("dma: device %d needs a program", id)
	}
	if mc == nil {
		return nil, fmt.Errorf("dma: device %d needs a memory controller", id)
	}
	return &Device{ID: id, Domain: domain, feed: cpu.NewFeed(prog), mc: mc}, nil
}

// Done reports whether the device's program has finished.
func (d *Device) Done() bool { return d.done }

// Accesses returns how many transfers the device has issued.
func (d *Device) Accesses() uint64 { return d.accesses }

// Step issues the program's next transfer starting at cycle now and
// returns when the device is ready for its next transfer.
func (d *Device) Step(now uint64) (next uint64, ok bool, err error) {
	if d.done {
		return now, false, nil
	}
	acc := d.feed.Take()
	if acc == nil {
		d.done = true
		return now, false, nil
	}
	d.accesses++
	res, err := d.mc.ServeRequest(memctrl.Request{
		Line:   acc.Line,
		Write:  acc.Write,
		Domain: d.Domain,
		Source: memctrl.Source{Kind: memctrl.SourceDMA, ID: d.ID},
	}, now)
	if err != nil {
		return now, false, fmt.Errorf("dma: device %d transfer: %w", d.ID, err)
	}
	return res.Completion + acc.Think, true, nil
}
