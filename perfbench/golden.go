package main

// Outcomes recorded for the default seed at full size. A run on the
// default seed must reproduce them exactly; a run on another seed must
// reproduce its own first pass on every later pass.
var goldenGather = map[string]outcome{
	"square":  {Rounds: 6597, FinalLen: 2},
	"spiral":  {Rounds: 646, FinalLen: 2},
	"lintime": {Rounds: 512, FinalLen: 2},
	"walk":    {Rounds: 357, FinalLen: 2},
}

// goldenCampaignDigest is the behaviour digest of the stress campaign at
// 12000 items on the default seed.
const goldenCampaignDigest = "c123692ed9c5a7a067ca92a53acdb959111e25e47757c2fd30eae2800d538cff"
