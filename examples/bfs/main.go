// Direction-optimizing BFS on a road network: each level either pushes
// from the frontier's rows or pulls into the unvisited vertices' rows,
// and that choice is the vector-scale analogue of the paper's
// co-iteration trade-off (§VI relates the two). Also demonstrates betweenness centrality on a
// small sample of sources: Brandes' algorithm per source, the sources
// split across the workers.
package main

import (
	"fmt"
	"log"
	"sort"

	"maskedspgemm/spgemm"
)

func main() {
	// A long-diameter lattice, like the paper's europe_osm / GAP-road.
	a := spgemm.RandomGraph("road", 120*120, 99)
	fmt.Printf("road network: n=%d, edges=%d\n", a.Rows(), a.NNZ()/2)

	levels, err := spgemm.BFS(a, 0)
	if err != nil {
		log.Fatal(err)
	}

	reached, maxLevel := 0, int32(0)
	hist := map[int32]int{}
	for _, l := range levels {
		if l >= 0 {
			reached++
			hist[l]++
			if l > maxLevel {
				maxLevel = l
			}
		}
	}
	fmt.Printf("reached %d/%d vertices, eccentricity of source: %d\n", reached, a.Rows(), maxLevel)

	// Frontier profile: road networks have long, thin frontiers — the
	// regime where pull never pays off.
	var peaks []int32
	for l := range hist {
		peaks = append(peaks, l)
	}
	sort.Slice(peaks, func(i, j int) bool { return hist[peaks[i]] > hist[peaks[j]] })
	if len(peaks) > 0 {
		fmt.Printf("widest frontier: level %d with %d vertices\n", peaks[0], hist[peaks[0]])
	}

	// Betweenness centrality from a source sample.
	sources := []int{0, a.Rows() / 2, a.Rows() - 1}
	bc, err := spgemm.BetweennessCentralityBatch(a, sources, spgemm.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	best, bestV := -1.0, -1
	for v, c := range bc {
		if c > best {
			best, bestV = c, v
		}
	}
	fmt.Printf("highest sampled betweenness: vertex %d (%.1f)\n", bestV, best)
}
