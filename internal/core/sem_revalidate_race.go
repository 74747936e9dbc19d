//go:build privstm_semrevalidate_race

package core

// Stripe samples are checked once, before the commit timestamp, as they
// were before the fix: a privatizer can overtake a committing Delete or Put
// between that check and the tick (see semStillValid). The tds exploration
// pair must rediscover it (Makefile explore-tds).
const semRevalidate = false
