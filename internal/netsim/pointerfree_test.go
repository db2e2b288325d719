package netsim

import (
	"reflect"
	"testing"
)

// TestPacketHoldsNoPointers pins the pointer-free packet plane: a packet
// field that holds a pointer, func, map, slice, chan, interface or string
// would put every arena page back under GC scanning and write barriers.
// The per-direction linkState is held to the same rule, so the links
// array is never scanned either.
func TestPacketHoldsNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s: the packet plane must hold no pointers", path, typ.Kind())
		}
	}
	check("packet", reflect.TypeOf(packet{}))
	check("linkState", reflect.TypeOf(linkState{}))
}

// TestDeepMessageAllocs: sending one 4096-packet message onto a fresh
// network and draining it allocates the arena pages the packets need,
// plus a fixed handful for the page table and the engine's and pools'
// first entries, rather than anything per packet.
func TestDeepMessageAllocs(t *testing.T) {
	const runs, packets = 5, 4096
	var nets []*Network
	for i := 0; i < runs+1; i++ {
		_, n := benchChain(t, DefaultConfig())
		nets = append(nets, n)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		n := nets[next]
		next++
		n.SendMessage(1, packets*n.Cfg.PacketBytes, nil, nil)
		n.Engine().RunAll()
		if n.Dropped != 0 || n.Engine().Len() != 0 {
			t.Fatalf("%d drops, %d events left", n.Dropped, n.Engine().Len())
		}
	})
	t.Logf("%.0f allocs", allocs)
	pages := (packets + 1 + pktPageSize - 1) / pktPageSize // slot 0 is reserved
	if limit := float64(pages + 20); allocs > limit {
		t.Fatalf("a %d-packet message allocates %.0f times, want at most %.0f (%d pages + 20)", packets, allocs, limit, pages)
	}
}
