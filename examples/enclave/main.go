// Enclave scenario (§4.4): the same Rowhammer attack against (a) a plain
// VM, whose data silently corrupts, and (b) an integrity-checked enclave,
// where the corruption is detected on access and the machine locks up —
// degrading an arbitrary-corruption attack into a denial of service.
// It also shows the §4.4 refresh-permission extension: an enclave may
// issue the refresh instruction for its own addresses only.
//
// Run with: go run ./examples/enclave
package main

import (
	"errors"
	"fmt"
	"log"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
	"hammertime/internal/harness"
	"hammertime/internal/memctrl"
)

func main() {
	spec := core.DefaultSpec()
	spec.Profile = dram.LPDDR4()
	double := attack.Kind{Name: "double-sided", Sided: 2}

	plain, err := harness.RunAttack(spec, defense.None{}, double, harness.AttackOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== plain victim VM ===")
	fmt.Printf("cross-domain flips: %d, machine locked up: %v\n", plain.CrossFlips, plain.LockedUp)
	fmt.Println("outcome: silent corruption — page tables, keys, anything.")

	enclave, err := harness.RunAttack(spec, defense.None{}, double,
		harness.AttackOpts{VictimIntegrity: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== integrity-checked enclave victim (SGX-style) ===")
	fmt.Printf("cross-domain flips: %d, machine locked up: %v\n", enclave.CrossFlips, enclave.LockedUp)
	fmt.Println("outcome: flips detected on access; the machine halts (DoS only).")

	// §4.4 extension: with subarray-isolated memory, an enclave can be
	// allowed to refresh rows inside its own address space.
	fmt.Println("\n=== enclave-issued refresh instruction ===")
	m, err := core.NewMachine(spec)
	if err != nil {
		log.Fatal(err)
	}
	tenants, err := harness.SetupTenants(m, 2, 16)
	if err != nil {
		log.Fatal(err)
	}
	enclaveDom := tenants[0].Domain
	enclaveDom.Enclave = true
	otherDom := tenants[1].Domain

	owned := map[uint64]bool{}
	for i := range tenants[0].Lines.Len() {
		owned[tenants[0].Lines.At(i)] = true
	}
	// The host grants the enclave refresh rights over its own lines only.
	m.MC.SetRefreshPermission(func(domain int, line uint64) bool {
		if domain == 0 {
			return true
		}
		return domain == enclaveDom.ID && owned[line]
	})

	ownLine := tenants[0].Lines.At(0)
	foreignLine := tenants[1].Lines.At(0)
	if _, err := m.MC.RefreshInstruction(ownLine, true, enclaveDom.ID, 0); err != nil {
		log.Fatalf("enclave refresh of its own row failed: %v", err)
	}
	fmt.Printf("enclave %d refreshed its own row: allowed\n", enclaveDom.ID)
	_, err = m.MC.RefreshInstruction(foreignLine, true, enclaveDom.ID, 0)
	if !errors.Is(err, memctrl.ErrPrivileged) {
		log.Fatalf("expected privilege fault, got %v", err)
	}
	fmt.Printf("enclave %d refreshing tenant %d's row: denied (%v)\n",
		enclaveDom.ID, otherDom.ID, err)
}
