package simclock

import "testing"

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500µs"},
		{2500, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestDurationFromSeconds(t *testing.T) {
	if d := DurationFromSeconds(1.5); d != 1500*Millisecond {
		t.Fatalf("DurationFromSeconds(1.5) = %d", d)
	}
	if d := DurationFromSeconds(0.000001); d != 1 {
		t.Fatalf("DurationFromSeconds(1µs) = %d", d)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(100).Add(50)
	if tm != 150 {
		t.Fatalf("Add: %d", tm)
	}
	if d := Time(150).Sub(Time(100)); d != 50 {
		t.Fatalf("Sub: %d", d)
	}
}
