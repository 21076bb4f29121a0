// Package fault is the one fault-injection layer of the daemon, the
// cluster and the harness. A spec is a comma-separated list of clauses
// <site>.<fault>[=<arg>][:<p>][@<from>-<to>]; kinds lists every fault,
// and DESIGN.md ("Fault injection") what each one does.
//
// Each site keeps only its mechanism: the grammar, the seeded RNG and
// the injection counters (fault.<site>.<fault>) live here. An armed Site
// draws from sim.NewRNG(seed) in the order its mechanism asks, so its
// fault schedule is a pure function of the seed and the draw sequence.
package fault

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hammertime/internal/sim"
)

// kinds is the grammar: every site's faults and the shape of their
// clauses, an argument ("dur", "host", or "cell" for <grid>/<index>)
// followed by ":p" (fires with probability p per roll) or "@" (fires on
// the RPC calls of a window) or nothing (fires on the named cell).
var kinds = map[string]string{
	"serve.latency":  "dur:p", // the session sleeps <dur> before the job
	"serve.panic":    ":p",    // the session panics mid-job
	"serve.cancel":   ":p",    // the job is cancelled at latency/2 + 1ms
	"rpc.drop":       ":p",    // the request fails unsent
	"rpc.delay":      "dur:p", // the request is delayed
	"rpc.dup":        ":p",    // the request is delivered twice
	"rpc.truncate":   ":p",    // the response body is cut in half
	"rpc.corrupt":    ":p",    // a response byte is flipped
	"rpc.spike":      "dur@",  // calls in the window each sleep <dur>
	"rpc.partition":  "host@", // calls in the window to a host containing <host> fail
	"worker.corrupt": ":p",    // a digit of a returned cell's result is bumped
	"cell.error":     "cell",  // every attempt of the cell fails
	"cell.panic":     "cell",  // the cell panics
	"cell.once":      "cell",  // the cell's first attempt fails
}

// Fault is one parsed clause.
type Fault struct {
	Site, Kind string
	// Arg is the argument: a duration or a host as written, or a cell's
	// <grid>/<index>.
	Arg string
	// Dur is Arg parsed, for the duration faults.
	Dur time.Duration
	// P is the firing probability of a ":p" fault.
	P float64
	// From and To bound the call window [From, To) of an "@" fault.
	From, To uint64
}

// String renders the clause in its parseable form.
func (f Fault) String() string {
	s := f.Site + "." + f.Kind
	if f.Arg != "" {
		s += "=" + f.Arg
	}
	switch shape := kinds[f.Site+"."+f.Kind]; {
	case strings.HasSuffix(shape, ":p"):
		s += ":" + strconv.FormatFloat(f.P, 'g', -1, 64)
	case strings.HasSuffix(shape, "@"):
		s += fmt.Sprintf("@%d-%d", f.From, f.To)
	}
	return s
}

// Spec is a parsed fault spec, in clause order. The empty spec injects
// nothing.
type Spec []Fault

// Parse parses a spec; "" and "off" parse to the empty spec. Unknown
// sites or faults, missing or extra arguments, probabilities outside
// [0, 1], empty windows and a ":p" fault stated twice are errors.
func Parse(spec string) (Spec, error) {
	var s Spec
	if spec == "off" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		f, err := parseClause(part)
		if err == nil && strings.HasSuffix(kinds[f.Site+"."+f.Kind], ":p") &&
			slices.ContainsFunc(s, func(g Fault) bool { return g.Site == f.Site && g.Kind == f.Kind }) {
			err = fmt.Errorf("stated twice")
		}
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", part, err)
		}
		s = append(s, f)
	}
	return s, nil
}

// MustParse is Parse for specs fixed in code; it panics on error.
func MustParse(spec string) Spec {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

func parseClause(part string) (Fault, error) {
	site, rest, _ := strings.Cut(part, ".")
	f := Fault{Site: site, Kind: rest}
	if i := strings.IndexAny(rest, "=:@"); i >= 0 {
		f.Kind = rest[:i]
	}
	shape, ok := kinds[site+"."+f.Kind]
	if !ok {
		known := make([]string, 0, len(kinds))
		for k := range kinds {
			known = append(known, k)
		}
		sort.Strings(known)
		return f, fmt.Errorf("unknown fault (want one of %s)", strings.Join(known, ", "))
	}
	// The window or the probability comes off the end first, so that an
	// argument may itself hold ':' (a host with a port).
	tail := rest[len(f.Kind):]
	arg, form := shape, ""
	if i := strings.IndexAny(shape, ":@"); i >= 0 {
		arg, form = shape[:i], shape[i:]
	}
	switch form {
	case "@":
		i := strings.LastIndexByte(tail, '@')
		if i < 0 {
			return f, fmt.Errorf("want @<from>-<to>")
		}
		from, to, _ := strings.Cut(tail[i+1:], "-")
		var err1, err2 error
		f.From, err1 = strconv.ParseUint(from, 10, 64)
		f.To, err2 = strconv.ParseUint(to, 10, 64)
		if err1 != nil || err2 != nil || f.To <= f.From {
			return f, fmt.Errorf("bad window %q (want <from>-<to>, from < to)", tail[i+1:])
		}
		tail = tail[:i]
	case ":p":
		i := strings.LastIndexByte(tail, ':')
		if i < 0 {
			return f, fmt.Errorf("want :<probability>")
		}
		p, err := strconv.ParseFloat(tail[i+1:], 64)
		if err != nil || p < 0 || p > 1 {
			return f, fmt.Errorf("bad probability %q", tail[i+1:])
		}
		f.P, tail = p, tail[:i]
	}
	if arg == "" {
		if tail != "" {
			return f, fmt.Errorf("%s.%s takes no argument", site, f.Kind)
		}
		return f, nil
	}
	if len(tail) < 2 || tail[0] != '=' {
		return f, fmt.Errorf("want %s.%s=<%s>", site, f.Kind, arg)
	}
	f.Arg = tail[1:]
	switch arg {
	case "dur":
		d, err := time.ParseDuration(f.Arg)
		if err != nil || d < 0 || (d == 0 && f.Kind == "spike") {
			return f, fmt.Errorf("bad duration %q", f.Arg)
		}
		f.Dur = d
	case "cell":
		grid, idx, _ := strings.Cut(f.Arg, "/")
		i, err := strconv.Atoi(idx)
		if grid == "" || err != nil || i < 0 {
			return f, fmt.Errorf("bad cell %q (want <grid>/<index>)", f.Arg)
		}
		f.Arg = grid + "/" + strconv.Itoa(i)
	}
	return f, nil
}

// String renders the spec in its parseable form; the empty spec renders
// "off".
func (s Spec) String() string {
	if len(s) == 0 {
		return "off"
	}
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Check fails when a clause names a site outside armed: a process arms
// only the sites it runs, and a fault it would never inject is a
// mistake, not a no-op.
func (s Spec) Check(armed ...string) error {
	for _, f := range s {
		if !slices.Contains(armed, f.Site) {
			return fmt.Errorf("fault: %s: this process does not run site %q (it runs %s)",
				f, f.Site, strings.Join(armed, ", "))
		}
	}
	return nil
}

// Cell returns the cell fault aimed at the grid's cell index, if any.
func (s Spec) Cell(grid string, index int) (Fault, bool) {
	for _, f := range s {
		if f.Site == "cell" && f.Arg == grid+"/"+strconv.Itoa(index) {
			return f, true
		}
	}
	return Fault{}, false
}

// Arm returns the named site's injector seeded with seed, or nil when
// the spec names no fault there. A nil *Site never fires.
func (s Spec) Arm(site string, seed uint64) *Site {
	var mine Spec
	for _, f := range s {
		if f.Site == site {
			mine = append(mine, f)
		}
	}
	if mine == nil {
		return nil
	}
	return &Site{prefix: "fault." + site + ".", faults: mine, rng: sim.NewRNG(seed)}
}

// Site is one armed injection site: its clauses, its seeded RNG behind a
// lock, and its injection counters.
type Site struct {
	prefix string
	faults Spec

	mu    sync.Mutex
	rng   *sim.RNG
	draws uint64
	stats sim.Stats
}

// Faults returns the site's clauses.
func (s *Site) Faults() Spec {
	if s == nil {
		return nil
	}
	return s.faults
}

// Fault returns the site's first clause of the given kind.
func (s *Site) Fault(kind string) (Fault, bool) {
	for _, f := range s.Faults() {
		if f.Kind == kind {
			return f, true
		}
	}
	return Fault{}, false
}

// Roll draws one Bool(p) for the kind's ":p" fault and counts it when it
// fires. A kind the site does not inject, or p = 0, draws nothing.
func (s *Site) Roll(kind string) (Fault, bool) {
	f, ok := s.Fault(kind)
	if !ok || f.P <= 0 {
		return f, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.rng.Bool(f.P) {
		return f, false
	}
	s.stats.Inc(s.prefix + kind)
	return f, true
}

// Draw reserves the next n values of the site's stream for one call and
// returns the call's sequence number (0, 1, ...) with a generator that
// yields exactly those values (a Uint64 or a Float64 takes one each). A
// mechanism that draws a fixed n per call gets a schedule that is a pure
// function of (seed, call index), whatever the goroutine interleaving.
func (s *Site) Draw(n int) (uint64, *sim.RNG) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := *s.rng
	for i := 0; i < n; i++ {
		s.rng.Uint64()
	}
	s.draws++
	return s.draws - 1, &r
}

// Count records one injection of the kind.
func (s *Site) Count(kind string) {
	s.mu.Lock()
	s.stats.Inc(s.prefix + kind)
	s.mu.Unlock()
}

// MergeInto adds the site's injection counters to dst as
// fault.<site>.<kind>. A nil site adds nothing.
func (s *Site) MergeInto(dst *sim.Stats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dst.Merge(&s.stats)
}
