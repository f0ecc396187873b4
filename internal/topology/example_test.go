package topology_test

import (
	"fmt"

	"nocalert/internal/topology"
)

// ExampleMesh demonstrates the coordinate convention (paper Figure
// 2a): row-major node ids from the bottom-left corner.
func ExampleMesh() {
	m := topology.NewMesh(4, 4)
	fmt.Println("node at (1,2):", m.NodeAt(1, 2))
	n, _ := m.Neighbor(m.NodeAt(1, 2), topology.East)
	fmt.Println("east neighbor:", n)
	fmt.Println("hops (0,0)->(3,3):", m.HopDistance(m.NodeAt(0, 0), m.NodeAt(3, 3)))
	// Output:
	// node at (1,2): 9
	// east neighbor: 10
	// hops (0,0)->(3,3): 6
}
