package experiment

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"testing"
)

// topologyDumpEnv makes TestTopologyDeterministicAcrossProcesses act as
// the child: it prints the topologies and exits.
const topologyDumpEnv = "TCACHE_TOPOLOGY_DUMP"

// dumpQuickTopologies builds the -quick amazon and orkut topologies and
// returns each as its edge list followed by every node's neighbours in
// adjacency order — what a random walk draws from. The edge list alone
// (u < v only) cannot see how a node's smaller and larger neighbours
// interleave, which is exactly what a map-ordered Subgraph scrambles.
func dumpQuickTopologies(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, kind := range []TopologyKind{TopologyAmazon, TopologyOrkut} {
		g, err := BuildTopology(kind, QuickTopologyParams())
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString("# " + string(kind) + "\n")
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			fmt.Fprintln(&buf, u, g.Neighbors(u))
		}
	}
	return buf.Bytes()
}

// TestTopologyDeterministicAcrossProcesses: one seed, one graph — built
// twice here and once in a child process (its own map hash seed), byte
// for byte. Every topology-driven figure and the paper_sim workload walk
// these graphs, so Column's "exactly reproducible for a given seed"
// starts here.
func TestTopologyDeterministicAcrossProcesses(t *testing.T) {
	if os.Getenv(topologyDumpEnv) != "" {
		os.Stdout.Write(dumpQuickTopologies(t))
		os.Exit(0)
	}
	first := dumpQuickTopologies(t)
	if second := dumpQuickTopologies(t); !bytes.Equal(first, second) {
		t.Fatal("two builds of the quick topologies in one process differ")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTopologyDeterministicAcrossProcesses$")
	cmd.Env = append(os.Environ(), topologyDumpEnv+"=1")
	child, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v", err)
	}
	if !bytes.Equal(first, child) {
		t.Fatalf("child process built different quick topologies (%d vs %d bytes)", len(child), len(first))
	}
}
