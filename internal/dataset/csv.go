package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"apan/internal/tgraph"
)

// WriteCSV writes a bipartite dataset in the JODIE CSV format that LoadCSV
// (and the paper authors' published pipelines) read:
//
//	user_id,item_id,timestamp,state_label,f0,...,fK
//
// Item ids are shifted back to a 0-based range. Unlabeled events are
// written with state_label 0, matching the public files where only state
// *changes* are 1.
func WriteCSV(w io.Writer, d *Dataset) error {
	if !d.Bipartite {
		return fmt.Errorf("dataset: WriteCSV requires a bipartite dataset, %q is not", d.Name)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("user_id,item_id,timestamp,state_label,comma_separated_list_of_features\n"); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	for i := range d.Events {
		ev := &d.Events[i]
		label := 0
		if ev.Label == 1 {
			label = 1
		}
		if _, err := fmt.Fprintf(bw, "%d,%d,%s,%d", ev.Src, int(ev.Dst)-d.NumUsers,
			strconv.FormatFloat(ev.Time, 'f', -1, 64), label); err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		for _, f := range ev.Feat {
			if _, err := fmt.Fprintf(bw, ",%s", strconv.FormatFloat(float64(f), 'g', -1, 32)); err != nil {
				return fmt.Errorf("dataset: %w", err)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
	}
	return bw.Flush()
}

// SaveCSV writes the dataset to path in the JODIE CSV format.
func SaveCSV(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := WriteCSV(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCSV reads a temporal interaction file in the JODIE format used by the
// paper's public datasets (http://snap.stanford.edu/jodie):
//
//	user_id,item_id,timestamp,state_label,f0,f1,...,fK
//
// with one header line. User and item ids are dense integers starting at 0;
// items are remapped to [numUsers, numUsers+numItems). The returned dataset
// is bipartite with interactions sorted by timestamp.
func LoadCSV(path, name string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ParseCSV(f, name)
}

// ParseCSV parses JODIE-format CSV content from r. See LoadCSV. Every row
// must carry non-negative ids whose node space fits int32, a finite
// timestamp, an integer label in int8's range and as many features as the
// first row; a row that does not is refused with its line number.
func ParseCSV(r io.Reader, name string) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	d := &Dataset{Name: name, Bipartite: true, LabelName: "state change"}
	maxUser, maxItem := -1, -1
	type rawEvent struct {
		user, item int
		ts         float64
		label      int8
		feat       []float32
	}
	var raws []rawEvent
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 || text == "" {
			continue // header
		}
		parts := strings.Split(text, ",")
		if len(parts) < 4 {
			return nil, fmt.Errorf("dataset: line %d: want ≥4 fields, got %d", line, len(parts))
		}
		user, err := parseID(parts[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d user: %w", line, err)
		}
		item, err := parseID(parts[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d item: %w", line, err)
		}
		ts, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d timestamp: %w", line, err)
		}
		if math.IsNaN(ts) || math.IsInf(ts, 0) {
			return nil, fmt.Errorf("dataset: line %d timestamp: %v is not finite", line, ts)
		}
		lab, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d label: %w", line, err)
		}
		if lab != math.Trunc(lab) || lab < math.MinInt8 || lab > math.MaxInt8 {
			return nil, fmt.Errorf("dataset: line %d label: %v is not an integer in [%d, %d]", line, lab, math.MinInt8, math.MaxInt8)
		}
		feat := make([]float32, 0, len(parts)-4)
		for _, p := range parts[4:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d feature: %w", line, err)
			}
			feat = append(feat, float32(v))
		}
		if len(raws) > 0 && len(feat) != len(raws[0].feat) {
			return nil, fmt.Errorf("dataset: line %d: %d features, the first event has %d", line, len(feat), len(raws[0].feat))
		}
		maxUser, maxItem = max(maxUser, user), max(maxItem, item)
		// Items are numbered after users, and a node id is an int32.
		if maxUser+1+maxItem > math.MaxInt32 {
			return nil, fmt.Errorf("dataset: line %d: %d users plus item id %d overflow the int32 node space", line, maxUser+1, maxItem)
		}
		raws = append(raws, rawEvent{user, item, ts, int8(lab), feat})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("dataset: no events in CSV")
	}
	d.NumUsers = maxUser + 1
	d.NumNodes = d.NumUsers + maxItem + 1
	d.EdgeDim = len(raws[0].feat)
	if d.EdgeDim == 0 {
		d.EdgeDim = 1 // degenerate files: give models a constant channel
	}
	d.Events = make([]tgraph.Event, 0, len(raws))
	for _, re := range raws {
		feat := re.feat
		if len(feat) == 0 {
			feat = []float32{1}
		}
		d.Events = append(d.Events, tgraph.Event{
			Src:   tgraph.NodeID(re.user),
			Dst:   tgraph.NodeID(d.NumUsers + re.item),
			Time:  re.ts,
			Feat:  feat,
			Label: re.label,
		})
	}
	d.finalize()
	return d, nil
}

// parseID parses a user or item id: a decimal integer in [0, MaxInt32].
func parseID(field string) (int, error) {
	id, err := strconv.ParseInt(strings.TrimSpace(field), 10, 32)
	if err != nil {
		return 0, err
	}
	if id < 0 {
		return 0, fmt.Errorf("negative id %d", id)
	}
	return int(id), nil
}
