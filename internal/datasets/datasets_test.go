package datasets

import "testing"

func TestCatalogComplete(t *testing.T) {
	for _, name := range Names() {
		d, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if d.SizeBytes <= 0 || d.Records <= 0 || d.DecodedBytes <= 0 {
			t.Fatalf("%s has degenerate fields: %+v", name, d)
		}
		if d.RecordBytes() < 1 {
			t.Fatalf("%s record bytes = %d", name, d.RecordBytes())
		}
	}
}

func TestTable1Sizes(t *testing.T) {
	// Spot-check against Table I (within 1%).
	cases := map[string]float64{
		"squad":    422.27,
		"mrpc":     2.85,
		"mnli":     430.61,
		"cola":     1.44,
		"cifar10":  178.87,
		"mnist":    56.21,
		"coco":     48.49 * 1024,
		"imagenet": 143.38 * 1024,
	}
	for name, wantMiB := range cases {
		d := MustGet(name)
		gotMiB := float64(d.SizeBytes) / (1 << 20)
		if gotMiB < wantMiB*0.99 || gotMiB > wantMiB*1.01 {
			t.Errorf("%s size = %.2f MiB, want %.2f", name, gotMiB, wantMiB)
		}
	}
}

func TestKinds(t *testing.T) {
	for _, name := range []string{"squad", "mrpc", "mnli", "cola"} {
		if MustGet(name).Kind != Text {
			t.Errorf("%s should be text", name)
		}
	}
	for _, name := range []string{"cifar10", "mnist", "coco", "imagenet"} {
		if MustGet(name).Kind != Image {
			t.Errorf("%s should be image", name)
		}
	}
	if Text.String() != "text" || Image.String() != "image" {
		t.Error("kind names")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("fake"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet did not panic")
		}
	}()
	MustGet("nope")
}

func TestHalved(t *testing.T) {
	d := MustGet("squad")
	h := d.Halved()
	if h.Records != d.Records/2 || h.SizeBytes != d.SizeBytes/2 {
		t.Fatalf("halved: %+v", h)
	}
	if h.Name != "squad-half" {
		t.Fatalf("halved name %q", h.Name)
	}
	if h.DecodedBytes != d.DecodedBytes {
		t.Fatal("halving changed decoded record size")
	}
	// Halving a degenerate 1-record set stays valid.
	tiny := Dataset{Name: "t", Records: 1, SizeBytes: 10, DecodedBytes: 1}
	if tiny.Halved().Records != 1 {
		t.Fatal("halved records hit zero")
	}
}
