package strategy

// The BFR knobs, for the tests outside the package.
const (
	AdvertInterval = bfrAdvertInterval
	AdvertLifetime = bfrAdvertLifetime
	AdvertScope    = bfrAdvertScope
	AdvertFPR      = bfrAdvertFPR
)
