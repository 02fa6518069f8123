package sz

// What compat_test.go, in the external test package so that it can import
// internal/archive, shares with the tests in here.
var (
	Fixture            = fixture
	ValuesHash         = valuesHash
	ShortcutEqualsScan = shortcutEqualsScan[float32]
)
