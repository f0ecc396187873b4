package sim

// nodeSet is a set of node ids, one bit a node, 64 to a word: the form of
// the active sets (Network.awake, Network.niAwake), which
// Step walks a word at a time in ascending id.
type nodeSet []uint64

func newNodeSet(nodes int) nodeSet { return make(nodeSet, (nodes+63)/64) }

func (s nodeSet) set(i int) { s[i>>6] |= 1 << uint(i&63) }

// rebuildAwake takes both active sets from the nodes themselves: a router
// that is not Inert and an NI that is not idle are awake, every other node
// asleep — every node, under the reference (soaOff). It is the one poll of
// the mesh, run by the first Step after anything but Step wrote a node, and
// by every Step of the reference.
func (n *Network) rebuildAwake() {
	clear(n.awake)
	clear(n.niAwake)
	for i, r := range n.routers {
		if n.soaOff || !r.Inert() {
			n.awake.set(i)
		}
		if n.soaOff || !n.nis[i].idle() {
			n.niAwake.set(i)
		}
	}
	n.awakeStale = false
}
