package ga

// Observed returns cfg with f called on every generation's population
// before it is measured, in Run and in each island of RunIslands.
func Observed(cfg Config, f func(pop []Individual)) Config {
	cfg.observe = f
	return cfg
}

// Carried reports whether in enters its generation with a reading.
func Carried(in Individual) bool { return in.measured }
