// Package datasets provides the synthetic stand-ins for the paper's
// training datasets (Table I).
//
// Only three properties of a dataset matter to anything TPUPoint can
// observe: how many records it has, how large the stored records are (that
// sets read and decode cost), and how large the decoded tensors are (that
// sets infeed traffic). Each catalog entry reproduces those from the
// paper's Table I sizes and the public record counts of the real datasets;
// the host model reads them, and no record bytes are materialized.
package datasets

import "fmt"

// Kind is the record modality, which selects the host pipeline shape.
type Kind uint8

// Modalities.
const (
	Text Kind = iota
	Image
)

func (k Kind) String() string {
	if k == Image {
		return "image"
	}
	return "text"
}

// Dataset describes one dataset as the simulator needs it.
type Dataset struct {
	Name      string
	Kind      Kind
	SizeBytes int64 // total stored size (Table I)
	Records   int64 // record count of the real dataset

	// DecodedBytes is the per-record tensor size after host decode for
	// the default model configuration that consumes this dataset.
	DecodedBytes int64
}

// RecordBytes returns the average stored record size.
func (d Dataset) RecordBytes() int64 {
	if d.Records == 0 {
		return 0
	}
	b := d.SizeBytes / d.Records
	if b < 1 {
		b = 1
	}
	return b
}

// Halved returns the dataset cut in half — the reduced-dataset variants of
// the paper's Figure 12/13 experiments.
func (d Dataset) Halved() Dataset {
	h := d
	h.Name = d.Name + "-half"
	h.SizeBytes = d.SizeBytes / 2
	h.Records = d.Records / 2
	if h.Records < 1 {
		h.Records = 1
	}
	return h
}

const (
	mib = int64(1) << 20
	gib = int64(1) << 30
)

// The catalog, from Table I (sizes) and the public record counts.
var catalog = map[string]Dataset{
	"squad": {
		Name: "squad", Kind: Text,
		SizeBytes: 422*mib + 276*mib/1024, // 422.27 MiB
		Records:   87_599,
		// BERT max_seq_length=128: ids+mask+segments as int32 + label.
		DecodedBytes: 3 * 128 * 4,
	},
	"mrpc": {
		Name: "mrpc", Kind: Text,
		SizeBytes:    2*mib + 870*mib/1024, // 2.85 MiB
		Records:      3_668,
		DecodedBytes: 3 * 128 * 4,
	},
	"mnli": {
		Name: "mnli", Kind: Text,
		SizeBytes:    430*mib + 625*mib/1024, // 430.61 MiB
		Records:      392_702,
		DecodedBytes: 3 * 128 * 4,
	},
	"cola": {
		Name: "cola", Kind: Text,
		SizeBytes:    1*mib + 450*mib/1024, // 1.44 MiB
		Records:      8_551,
		DecodedBytes: 3 * 128 * 4,
	},
	"cifar10": {
		Name: "cifar10", Kind: Image,
		SizeBytes: 178*mib + 891*mib/1024, // 178.87 MiB
		Records:   50_000,
		// 32x32x3 float32 after normalization.
		DecodedBytes: 32 * 32 * 3 * 4,
	},
	"mnist": {
		Name: "mnist", Kind: Image,
		SizeBytes:    56*mib + 215*mib/1024, // 56.21 MiB
		Records:      60_000,
		DecodedBytes: 28 * 28 * 1 * 4,
	},
	"coco": {
		Name: "coco", Kind: Image,
		SizeBytes: 48*gib + 502*gib/1024, // 48.49 GiB
		Records:   118_287,
		// RetinaNet image_size=640: 640x640x3 float32 + padded boxes.
		DecodedBytes: 640*640*3*4 + 64<<10,
	},
	"imagenet": {
		Name: "imagenet", Kind: Image,
		SizeBytes: 143*gib + 389*gib/1024, // 143.38 GiB
		Records:   1_281_167,
		// ResNet-50 224x224x3 float32.
		DecodedBytes: 224 * 224 * 3 * 4,
	},
}

// Names returns all catalog dataset names (unsorted map order is hidden
// behind a fixed list so output is stable).
func Names() []string {
	return []string{"squad", "mrpc", "mnli", "cola", "cifar10", "mnist", "coco", "imagenet"}
}

// Get returns a catalog dataset by name.
func Get(name string) (Dataset, error) {
	d, ok := catalog[name]
	if !ok {
		return Dataset{}, fmt.Errorf("datasets: unknown dataset %q", name)
	}
	return d, nil
}

// MustGet is Get for static names; it panics on a typo.
func MustGet(name string) Dataset {
	d, err := Get(name)
	if err != nil {
		panic(err)
	}
	return d
}
