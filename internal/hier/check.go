package hier

import (
	"fmt"

	"dtmsched/internal/tm"
)

// CrossCheck verifies the decomposition's containment invariant: a
// shard-local object's home and every one
// of its users must lie inside that shard's subtree, so no local schedule
// ever moves an object across a tier boundary. Feasibility of the merged
// schedule is schedule.Validate's job.
func CrossCheck(d *Decomposition, in *tm.Instance) error {
	for o := 0; o < in.NumObjects; o++ {
		so := d.ObjShard[o]
		if so < 0 {
			continue
		}
		if hs := d.NodeShard[in.Home[o]]; hs != so {
			return fmt.Errorf("hier: object %d is local to shard %d but homed on node %d of shard %d",
				o, so, in.Home[o], hs)
		}
		for _, id := range in.Users(tm.ObjectID(o)) {
			if ns := d.NodeShard[in.Txns[id].Node]; ns != so {
				return fmt.Errorf("hier: object %d is local to shard %d but used by transaction %d on node %d of shard %d",
					o, so, id, in.Txns[id].Node, ns)
			}
		}
	}
	return nil
}
