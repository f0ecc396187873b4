package hwmodel_test

import (
	"fmt"

	"nocalert/internal/hwmodel"
)

// ExampleAreaOverhead regenerates one Figure 10 point: the paper's
// 5-port router with 4 VCs, 5-flit buffers and 128-bit flits.
func ExampleAreaOverhead() {
	o := hwmodel.AreaOverhead(hwmodel.Params{Ports: 5, VCs: 4, BufDepth: 5, FlitWidth: 128})
	fmt.Printf("NoCAlert %.2f%% vs DMR-CL %.2f%%\n", o.NoCAlertPct, o.DMRPct)
	// Output:
	// NoCAlert 1.83% vs DMR-CL 9.97%
}
