package meter

import (
	"crypto/ed25519"
	"fmt"

	"lateral/internal/core"
	"lateral/internal/cryptoutil"
	"lateral/internal/netsim"
	"lateral/internal/securechan"
)

// This file implements the two quantitative scenarios §III-C sketches
// around the smart meter: the gateway's DDoS containment (E10) and
// password-less authentication's phishing resistance (E9).

// Gateway is the isolated component with exclusive network-hardware
// access: "it can reliably enforce domain whitelists and bandwidth
// policies to prevent the smart meter appliance from participating in
// distributed denial-of-service attacks".
type Gateway struct {
	ep        *netsim.Endpoint
	whitelist map[string]bool
	tokens    int
	rate      int

	blockedDest int
	blockedRate int
	forwarded   int
}

// NewGateway wraps an endpoint with a destination whitelist and a
// token-bucket egress budget of rate packets per Tick.
func NewGateway(ep *netsim.Endpoint, whitelist []string, rate int) *Gateway {
	wl := make(map[string]bool, len(whitelist))
	for _, w := range whitelist {
		wl[w] = true
	}
	return &Gateway{ep: ep, whitelist: wl, tokens: rate, rate: rate}
}

// Tick refills the token bucket (one virtual time unit).
func (g *Gateway) Tick() {
	g.tokens = g.rate
}

// Forward applies policy and transmits. Rejections are counted, not
// errors the caller can bypass.
func (g *Gateway) Forward(to string, payload []byte) error {
	if !g.whitelist[to] {
		g.blockedDest++
		return fmt.Errorf("gateway: destination %q not whitelisted: %w", to, core.ErrRefused)
	}
	if g.tokens <= 0 {
		g.blockedRate++
		return fmt.Errorf("gateway: egress budget exhausted: %w", core.ErrRefused)
	}
	g.tokens--
	g.forwarded++
	return g.ep.Send(to, payload)
}

// Stats reports (forwarded, blocked-by-whitelist, blocked-by-rate).
func (g *Gateway) Stats() (forwarded, blockedDest, blockedRate int) {
	return g.forwarded, g.blockedDest, g.blockedRate
}

// FloodResult scores one DDoS trial.
type FloodResult struct {
	GatewayOn        bool
	Attempted        int
	DeliveredVictim  int
	DeliveredUtility int
}

// Flood simulates a compromised Android sending `packets` datagrams to an
// Internet victim plus `packets` legitimate-looking datagrams to the
// utility, with ticks/Tick refills spread evenly. With the gateway off the
// bot drives the NIC directly.
func Flood(packets int, rate int, gatewayOn bool) FloodResult {
	net := netsim.New()
	bot := net.Attach("appliance")
	net.Attach("victim")
	net.Attach("utility")
	res := FloodResult{GatewayOn: gatewayOn, Attempted: 2 * packets}
	var gw *Gateway
	if gatewayOn {
		gw = NewGateway(bot, []string{"utility"}, rate)
	}
	// The bucket refills once per 2*rate attempted packets, so a flood
	// burning the budget on junk also starves its own telemetry — egress
	// is capped regardless of destination mix.
	for i := 0; i < packets; i++ {
		if gatewayOn && i%(2*rate) == 0 {
			gw.Tick()
		}
		if gatewayOn {
			_ = gw.Forward("victim", []byte("junk"))
			_ = gw.Forward("utility", []byte("telemetry"))
		} else {
			_ = bot.Send("victim", []byte("junk"))
			_ = bot.Send("utility", []byte("telemetry"))
		}
	}
	res.DeliveredVictim = net.Attach("victim").Pending()
	res.DeliveredUtility = net.Attach("utility").Pending()
	return res
}

// PhishingResult scores one campaign (experiment E9).
type PhishingResult struct {
	HardwareAuth bool
	Users        int
	Lured        int // users who fell for the fake dialog
	Compromised  int // accounts the attacker could subsequently access
}

// PhishingCampaign simulates a phishing wave against `users` households.
// Every lured user interacts with the attacker's fake portal:
//
//   - With password authentication, the lured user types the account
//     password into the fake dialog; the attacker then authenticates to
//     the utility with it. The server cannot tell captured credentials
//     from the real thing.
//   - With hardware-key authentication there is no credential to type —
//     "the user does not need to remember a credential" — so the attacker
//     gets nothing reusable; its emulated quote fails verification.
//
// Both branches run the REAL securechan handshake against a server
// enforcing the respective policy; the numbers are outcomes of the
// protocol, not assumptions.
func PhishingCampaign(users int, lureRate float64, hardwareAuth bool, seed string) (PhishingResult, error) {
	prng := cryptoutil.NewPRNG("phishing:" + seed)
	res := PhishingResult{HardwareAuth: hardwareAuth, Users: users}

	socVendor := cryptoutil.NewSigner("soc-vendor")
	serverID := cryptoutil.NewSigner("utility-tls-identity")
	meterMeas := GoodMeterMeasurement()

	// Per-user credentials.
	passwords := make([][]byte, users)
	devices := make([]*cryptoutil.Signer, users)
	for u := 0; u < users; u++ {
		passwords[u] = []byte(fmt.Sprintf("pw-%s-%d", seed, u))
		devices[u] = cryptoutil.NewSigner(fmt.Sprintf("meter-%s-%d", seed, u))
	}

	// The utility's client-auth policy.
	verifyClient := func(evidence []byte, tr [32]byte) error {
		if hardwareAuth {
			return core.VerifyEvidence(evidence, tr[:], socVendor.Public(), meterMeas)
		}
		for _, pw := range passwords {
			if string(evidence) == string(pw) {
				return nil
			}
		}
		return fmt.Errorf("bad password: %w", ErrRefusedPeer)
	}

	attackerConnect := func(evidence func([32]byte) ([]byte, error)) bool {
		server, err := securechan.NewServer(securechan.ServerConfig{
			Rand:         cryptoutil.NewPRNG("srv:" + seed + fmt.Sprint(res.Lured)),
			Identity:     serverID,
			VerifyClient: verifyClient,
		})
		if err != nil {
			return false
		}
		client, err := securechan.NewClient(securechan.ClientConfig{
			Rand: cryptoutil.NewPRNG("atk:" + seed + fmt.Sprint(res.Lured)),
			VerifyServer: func(pub ed25519.PublicKey, _ [32]byte, _ []byte) error {
				return nil // the attacker trusts the real server just fine
			},
			Evidence: evidence,
		})
		if err != nil {
			return false
		}
		resp, pending, err := server.Respond(client.Hello())
		if err != nil {
			return false
		}
		_, finish, err := client.Finish(resp)
		if err != nil {
			return false
		}
		_, err = pending.Complete(finish)
		return err == nil
	}

	for u := 0; u < users; u++ {
		if prng.Float64() >= lureRate {
			continue
		}
		res.Lured++
		if hardwareAuth {
			// The lured user has nothing to divulge; the attacker tries a
			// software emulation with a made-up key.
			fake := cryptoutil.NewSigner(fmt.Sprintf("emul-%d", u))
			ok := attackerConnect(func(tr [32]byte) ([]byte, error) {
				return core.SignQuote("tz-rom", meterMeas, tr[:], fake,
					core.IssueVendorCert(fake, fake.Public())).Encode(), nil
			})
			if ok {
				res.Compromised++
			}
		} else {
			// The fake dialog captured the real password; replaying it
			// authenticates.
			captured := passwords[u]
			ok := attackerConnect(func([32]byte) ([]byte, error) {
				return captured, nil
			})
			if ok {
				res.Compromised++
			}
		}
	}
	return res, nil
}
