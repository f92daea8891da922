package cap_test

// TTL decay tests, driven by the simtest virtual clock so expiry is
// deterministic: time moves only when the test advances it. (External
// test package: simtest transitively imports cap via internal/policy.)

import (
	"errors"
	"testing"
	"time"

	"lateral/internal/cap"
	"lateral/internal/simtest"
)

func TestMintTTLDecays(t *testing.T) {
	clk := simtest.NewClock()
	root := cap.NewRoot(gate("export"), cap.Invoke|cap.Grant)
	c, err := root.MintTTL(cap.Invoke, 7, time.Minute, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	if want := simtest.Epoch.Add(time.Minute); !c.Expiry().Equal(want) {
		t.Errorf("Expiry = %v, want %v", c.Expiry(), want)
	}
	// Live until the instant of expiry; every operation fails closed after.
	clk.Advance(59 * time.Second)
	if err := c.Demand(cap.Invoke); err != nil {
		t.Fatalf("live cap refused: %v", err)
	}
	if _, err := c.Object(); err != nil {
		t.Fatalf("live cap object: %v", err)
	}
	clk.Advance(time.Second)
	if err := c.Demand(cap.Invoke); !errors.Is(err, cap.ErrExpired) {
		t.Errorf("Demand after TTL = %v, want ErrExpired", err)
	}
	if _, err := c.Object(); !errors.Is(err, cap.ErrExpired) {
		t.Errorf("Object after TTL = %v, want ErrExpired", err)
	}
}

func TestExpiredCapCannotMint(t *testing.T) {
	clk := simtest.NewClock()
	root := cap.NewRoot(gate("export"), cap.Invoke|cap.Grant)
	c, err := root.MintTTL(cap.Invoke|cap.Grant, 1, time.Minute, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if _, err := c.Mint(cap.Invoke, 2); !errors.Is(err, cap.ErrExpired) {
		t.Errorf("Mint from expired = %v, want ErrExpired", err)
	}
	if _, err := c.MintTTL(cap.Invoke, 2, time.Hour, clk.Now); !errors.Is(err, cap.ErrExpired) {
		t.Errorf("MintTTL from expired = %v, want ErrExpired", err)
	}
}

func TestChildNeverOutlivesDecayingParent(t *testing.T) {
	clk := simtest.NewClock()
	root := cap.NewRoot(gate("export"), cap.Invoke|cap.Grant)
	parent, err := root.MintTTL(cap.Invoke|cap.Grant, 1, time.Minute, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	// A plain Mint inherits the parent's expiry outright.
	plain, err := parent.Mint(cap.Invoke, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Expiry().Equal(parent.Expiry()) {
		t.Errorf("plain child expiry %v, parent %v", plain.Expiry(), parent.Expiry())
	}
	// A MintTTL asking for longer than the parent has left is clipped.
	clipped, err := parent.MintTTL(cap.Invoke, 3, time.Hour, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	if !clipped.Expiry().Equal(parent.Expiry()) {
		t.Errorf("clipped child expiry %v, parent %v", clipped.Expiry(), parent.Expiry())
	}
	// A shorter TTL stands on its own.
	short, err := parent.MintTTL(cap.Invoke, 4, time.Second, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if err := short.Demand(cap.Invoke); !errors.Is(err, cap.ErrExpired) {
		t.Errorf("short child after its TTL = %v, want ErrExpired", err)
	}
	if err := parent.Demand(cap.Invoke); err != nil {
		t.Errorf("parent still inside TTL refused: %v", err)
	}
	clk.Advance(time.Minute)
	for i, c := range []*cap.Cap{parent, plain, clipped} {
		if err := c.Demand(cap.Invoke); !errors.Is(err, cap.ErrExpired) {
			t.Errorf("cap %d past parent TTL = %v, want ErrExpired", i, err)
		}
	}
}

func TestZeroExpiryNeverDecays(t *testing.T) {
	clk := simtest.NewClock()
	root := cap.NewRoot(gate("export"), cap.Invoke|cap.Grant)
	c, err := root.Mint(cap.Invoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(1000 * time.Hour)
	if err := c.Demand(cap.Invoke); err != nil {
		t.Errorf("non-decaying cap refused: %v", err)
	}
	if !c.Expiry().IsZero() {
		t.Errorf("Expiry = %v, want zero", c.Expiry())
	}
}

func TestRevokeBeatsTTL(t *testing.T) {
	// Revocation and decay are independent: a revoked cap reports
	// ErrRevoked even while its TTL is live.
	clk := simtest.NewClock()
	root := cap.NewRoot(gate("export"), cap.Invoke|cap.Grant)
	c, err := root.MintTTL(cap.Invoke, 1, time.Hour, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	c.Revoke()
	if err := c.Demand(cap.Invoke); !errors.Is(err, cap.ErrRevoked) {
		t.Errorf("revoked live-TTL cap = %v, want ErrRevoked", err)
	}
}
