package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"nocalert/internal/router"
)

// The fold cache against a fold rebuilt from nothing. A node's fold is
// answered from what its router and NI kept of the last one wherever
// nothing was written since (router.Router.FoldState, NI.foldState); a
// write that left a kept term standing would go unseen by every comparison
// of two cached folds that are stale alike. The lockstep suites therefore
// hold each node they step to the fold it has once every cache is thrown
// away, cycle by cycle.

// routerField returns an unexported field of r, settable: the rebuild
// reaches past the router's API on purpose — production code has no way to
// fold a router without its cache, and is to have none. A renamed field
// panics here.
func routerField(r *router.Router, name string) reflect.Value {
	f := reflect.ValueOf(r).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// rebuiltNodeFold folds node i of n from its registers, buffers and queues
// alone: every port's and every input VC's term of the router's fold are
// marked stale first, and the NI's body. The node's caches hold the rebuilt values
// afterwards, which are the ones they held if the test goes on.
func rebuiltNodeFold(n *Network, i int) uint64 {
	r := n.routers[i]
	routerField(r, "portDirty").SetUint(1<<router.P - 1)
	dirty := routerField(r, "foldDirty")
	for p := 0; p < dirty.Len(); p++ {
		dirty.Index(p).SetUint(1<<uint(n.rcfg.VCs) - 1)
	}
	n.nis[i].bodyOK = false
	return n.nodeFold(i)
}

// requireFoldsRebuilt fails the test if one of the given nodes of n folds
// to another value from its caches than rebuilt.
func requireFoldsRebuilt(t *testing.T, what string, n *Network, ids []int) {
	t.Helper()
	for _, id := range ids {
		if got, want := n.nodeFold(id), rebuiltNodeFold(n, id); got != want {
			t.Fatalf("cycle %d, %s node %d: folds to %#x from its cache, to %#x rebuilt from nothing: a write left a kept term standing", n.cycle-1, what, id, got, want)
		}
	}
}

// allNodes returns every node id of n.
func allNodes(n *Network) []int {
	ids := make([]int, len(n.routers))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestFoldSeesAPacketInjectedBetweenCycles: InjectPacket writes an NI
// outside Step, with no tick of that NI to follow before the next fold.
func TestFoldSeesAPacketInjectedBetweenCycles(t *testing.T) {
	n := MustNew(cfg44(0.12, 5), nil)
	n.Run(50)
	before := n.Fingerprint()
	n.InjectPacket(0, 15, 0)
	if n.Fingerprint() == before {
		t.Fatal("a packet queued at an NI left the fingerprint where it was")
	}
	requireFoldsRebuilt(t, "after InjectPacket", n, allNodes(n))
}
