package server

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}
